"""Exact minimum consistent subsets on colored trees.

The solver roots the tree at the lowest vertex id and runs a memoized
recursion over *child prefixes*: for a vertex ``v`` with children
``v_1 < v_2 < ...``, the prefix ``T_i(v)`` is ``{v}`` together with the
subtrees hanging off the first ``i`` children.

State.  A table key ``(v, i, din, dext, cin, cext)`` pins down how a
hypothetical global solution looks from ``v``:

* ``din``/``cin``   -- hop distance from ``v`` to the nearest chosen
  vertices *inside* ``T_i(v)``, and the exact color set found there;
* ``dext``/``cext`` -- the same for chosen vertices *outside* ``T_i(v)``
  (the later sibling subtrees and everything beyond ``T(v)`` together).

``INF`` (paired with an empty color mask) means "no chosen vertex in that
region".  Every path that leaves ``T_i(v)`` passes through ``v``, so a
vertex ``u`` inside the prefix perceives the outside purely as "colors
``cext`` at distance ``d(u,v) + dext``"; the four parameters are therefore
a complete interface.  Keys are canonical: ``dext > din`` is stored as
``(INF, 0)``, since such an outside holds no nearest chosen vertex of any
prefix vertex ``u``, which has an inside one within ``d(u,v) + din``.  A
tie, ``dext == din``, keeps only the outside colors missing from ``cin``
(``cext & ~cin``), and is stored as ``(INF, 0)`` when none is left, since
a prefix vertex that sees such an outside already sees all of ``cin`` at
the same distance (see "Ties").
The table value is the minimum number of chosen vertices inside ``T_i(v)``
realizing ``din``/``cin`` such that every vertex of the prefix sees its
own color among its nearest chosen vertices; infeasible keys evaluate to
``INF``.

``INF`` is the int ``2**30 - 1``, not a float infinity.  It exceeds every
distance (at most ``n - 1``) and every value (at most ``n``) of any tree
that fits in memory, and it fits in one 30-bit digit: CPython 3.11-3.13
specialises ``<``, ``<=`` and ``==`` only between ints of one digit, and
an int meeting a float (or a wider int, such as ``sys.maxsize``) takes
the generic compare on every step of the fill.  Unlike a float infinity,
``INF + j`` is not ``INF``, so no sum that may hold it is tested against
it: ``_run_landing`` canonicalizes ``dext + j`` to ``(INF, 0)`` before any
``== INF`` test, and ``dmin + 1``, ``din - dext`` and ``_run_side_keys``'s
``2 * e + dext`` run only on finite distances.  A total ``left + right``
with an ``INF`` side exceeds ``INF``, so it is never below the best total
(at most ``INF``), as with a float; the memo holds finite values and
``INF`` itself, nothing larger.

Recursion.  A key is resolved by case analysis:

1. color tests -- ``v`` itself must see its color among the color sets
   attaining ``min(din, dext)``, the prefix must pass the near-outside
   and far-side bounds below, and every color of ``cin`` must occur at
   exact depth ``din`` (the exact-depth test), else ``INF``;
2. ``din == INF`` (nothing chosen inside): once step 1 passes, every
   prefix color lies in ``cext``, so the key is worth 0;
3. ``i == 0``: ``T_0(v) = {v}`` realizes only ``din == 0``, where step 1
   leaves ``cin == {color(v)}`` (``v`` chosen), worth 1 (the fill reads
   the values of steps 2 and 3 where it meets such a key, and stores none);
4. otherwise split ``din``/``cin`` over the two parts of ``T_i(v)``:
   choose the distance ``da`` and colors ``ca`` seen inside ``T_{i-1}(v)``
   and ``db``/``cb`` inside ``T(v_i)``, subject to ``min(da, db) == din``
   with the colors at the minimum uniting to ``cin``; add the best left
   and right table values.  The left part's outside is the nearer of
   ``T(v_i)`` and the old outside; the child's is the nearer of the left
   part and the old outside, one hop farther.  Both subkeys are
   canonicalized again; an old outside beyond ``din`` changes neither,
   because for each subkey the side attaining ``din`` is its inside or a
   nearer part of its outside.  A chosen ``v`` has one split, whose left
   part is chosen: its key is always ``(v, i, 0, INF, bit(v), 0)`` (every
   outside lies at least one hop away, beyond ``din``, and ``v`` is the
   level at distance 0), so it goes straight to that split, which keeps
   the left key ``(v, i - 1, 0, INF, bit(v), 0)`` and scans the child's
   keys from distance 0 under ``color(v)`` at distance 1, nearer than
   anything beyond ``v``.  A key of a first-child prefix ``T_1(v)`` with
   finite ``din >= 1`` has one split; see "First-child prefixes".

Color sets are int bitmasks (bit ``k`` = color ``k+1``).  All minima are
taken in a fixed documented order (splits: shared distance first, then
longer left distances ascending, then longer right distances ascending;
masks in decreasing numeric order).  The table holds values only: witness
reconstruction finds each split key's first argmin again with the same
scan (see "Witnesses"), so reported witnesses are deterministic.

Pruning.  Distance ranges are cut by prefix depths and by the colors
available at each exact depth.  Seven arguments then drop work whose
value is known without building it.  None changes a key's value or
the first argmin of any scan, so sizes and witnesses are the same as
with no pruning at all:

* Near-outside bound.  With ``dext < din``, a prefix vertex at depth
  ``k < (din - dext + 1) // 2`` from ``v`` has the outside at
  ``k + dext``, strictly nearer than any inside vertex (at least
  ``din - k`` away), so it sees ``cext`` alone; the key is ``INF`` unless
  every color at those depths (all of the prefix when ``din`` is ``INF``)
  lies in ``cext``.  The solver never generates, looks up or stores a
  key failing it or ``v``'s own test: such a key is worth ``INF``, and an
  ``INF`` key or split is never the first argmin of a finite minimum.
* Far-side bound.  With finite ``din >= 2``, let ``x`` be the LCA of the
  prefix vertices at depth ``din``; every chosen vertex at that depth lies
  below it.  A vertex ``u`` on the path from ``v`` to ``x``, at depth
  ``1 <= k < din``, has chosen inside vertices below it at ``din - k``, and
  every other inside vertex farther (below ``u`` but deeper, or reached
  back through ``u``'s parent), so its nearest inside colors are exactly
  ``cin``.  The outside lies at ``k + dext``; when ``2k > din - dext``
  (every ``k`` when ``dext`` is ``INF``) ``u`` sees ``cin`` alone, and the
  key is ``INF`` unless ``color(u)`` is in ``cin``.  Counting ``x`` itself
  when it lies at depth ``din`` is harmless: it is then the only vertex
  there, so the exact-depth test already forces ``cin == {color(x)}``.
  The solver never generates, looks up or stores a key failing it, in the
  subkeys of a split included, and for the reason above the first argmin
  cannot move.
* Empty side.  Where only one side of a split attains ``din``, that
  side's key is fixed and the other side's candidates come from the one
  key scan, ``_side_keys`` (which also yields the root keys): its farther
  distances, ending with its empty one (``din == INF``).  When the empty
  candidate passes the color tests it is worth 0 (step 2), while every
  other candidate chooses a vertex, so it is the only key yielded: it
  came last in that scan and is strictly better than every pair it
  replaces (all ``INF`` when the fixed side is), so the first argmin
  cannot move.  Under a chosen ``v`` this is a child subtree wholly of
  ``v``'s color.
* Color-count floor.  A consistent subset holds a vertex of every color
  present, so the root scan stops at the first key worth that many; it
  keeps the first strict minimum, which no later key could beat.
* First-child prefixes.  ``T_1(v)`` is ``v`` and ``T(v_1)``, ``v_1`` its
  first child, and with finite ``din >= 1`` its part ``T_0(v) = {v}``
  cannot attain ``din``, whatever ``v``'s child count: the key has one
  split, ``v`` unchosen and the child's key ``(v_1, eta(v_1), din - 1,
  dext + 1, cin, cext)`` fixed, and is worth that key (``v``'s own test
  makes the empty left key worth 0).  The child's key is again a
  first-child prefix's while ``v_1`` has one child and a nonzero inside
  distance, so the solver walks one hop to ``v_1`` and on down ``v_1``'s
  one-child run, ``j = min(din, 1 + one-child steps left from v_1)`` hops
  in all, to ``w``, and takes the one key ``(w, eta(w), din - j, dext + j,
  cin, cext)``, canonicalized (``(INF, 0)`` when ``dext + j > din - j``,
  one form at ``dext + j == din - j``; the outside only moves away along
  the walk, so this is the key that hop-by-hop canonicalizing reaches).
  The keys in between are never built.  Let ``w_t`` be the walk's vertex
  at depth ``t`` (``w_1 = v_1``) and ``K_t`` its key, with inside
  ``din - t`` and outside ``dext + t``.
  Every vertex of ``T_1(v)`` at depth ``s >= t`` lies in ``T(w_t)`` at
  depth ``s - t``, so ``K_t`` has the key's level at ``din``, and with it
  the same LCA ``x`` of that level and the same exact-depth test; and
  ``x`` lies in ``T(w_t)``, so ``w_t`` is on the path from ``v`` to ``x``.
  Each other test of ``K_t`` is one of ``v``'s key at depth ``t`` more:

  - its near-outside bound, when ``dext + t < din - t``, asks depths
    ``k < (din - dext - 2t + 1) // 2`` below ``w_t``, that is, depths
    ``t + k < (din - dext + 1) // 2`` below ``v``: ``v``'s near-outside
    bound;
  - its far-side bound asks the path to ``x`` from depth ``t + k`` with
    ``2k > din - dext - 2t``, that is, ``2(t + k) > din - dext``: ``v``'s
    far-side bound (when ``K_t`` is canonicalized to ``(INF, 0)``,
    ``2t > din - dext`` already, so it asks every depth below ``w_t``, as
    ``v``'s does);
  - ``w_t``'s own test: with ``2t < din - dext``, ``w_t`` lies within
    ``v``'s near-outside bound, so its color is in ``cext``, which it sees
    alone; with ``2t > din - dext`` and ``t < din``, it lies within ``v``'s
    far-side bound, so its color is in ``cin``, which it sees alone; at
    ``t == din`` the level is ``w`` alone and the exact-depth test gives
    ``cin = {color(w)}``.

  So ``v``'s own test, near-outside and far-side bounds (at ``din == 1``
  the exact-depth test) imply every test of every key of the walk but one:
  where inside and outside tie, ``din - dext`` even and ``m = (din -
  dext) / 2`` with ``1 <= m <= j``, the tie vertex ``w_m`` (``v_1`` when
  ``din - dext == 2``) sees ``cin | cext`` and must have a color there,
  else the key is ``INF``.  So the landing key passes the color tests, and
  values, first argmins and witnesses are unchanged.  A later prefix of a
  branching vertex (``i >= 2``), a chosen ``v`` and a leaf keep the split
  recurrence.  A first-child key is landed where it is requested, so the
  fill computes and stores none: the split scan yields a left key of
  ``T_1(v)`` and a right key of a one-child child already landed (on a
  path colored ``1...1 2`` rooted at the ``1`` end, storing the right ones
  took n(n+1)/2 keys; on a 1,000-vertex comb, one leaf on each spine
  vertex, storing the left ones and the keys of steps 2 and 3 took 336,993
  keys against 85,496), and ``dp_entry`` stores one it is asked for with
  its landing's value; witness reconstruction follows that landing.
* Monochrome stretches.  Where a split's left part attains ``din``, the
  child ``u``'s keys are scanned from inside distance ``din`` under the
  outside ``dext' = dmin + 1 <= din + 1`` with colors ``cy``.  If ``u`` has
  one child, the level at each depth ``d`` of its run (bottom vertex
  included) is one vertex ``w``, so that key has ``cin = {color(w)}`` and
  lands on ``w``'s chosen key ``K_w = (w, eta(w), 0, INF, bit(w), 0)`` (at
  ``d == 0`` it is that key).  A vertex's stretch is the run's vertices
  from it down, bottom vertex included, while they keep its color; the
  maximal stretches are the run's segments.  Let ``u``'s color ``b`` be in
  ``cy`` and ``T(u)`` hold a color outside ``cy`` (else the empty key is
  the one candidate).  Every depth ``d >= din`` of ``u``'s stretch passes
  every test: the near-outside depths lie in the stretch and hold only
  ``b``; ``u``'s own test sees ``b`` in ``cin``; the far-side path runs from
  ``u`` to ``w`` itself, all ``b``; and the landing's tie vertex is ``b``.
  Those candidates come one after another with the same left key, so their
  first argmin is the first minimum of ``K_w`` over the stretch from depth
  ``din``, nearest on ties: one pair.  The split loop evaluates the right
  keys of all of those pairs or of none (a chosen key is worth at least 1,
  so the best total stays above the left value), and the minimum is taken
  only where it evaluates them, so the memo holds the same keys.  A later
  segment ``[a, e]`` (depths below ``u``) has another color at depth
  ``a - 1``.  With ``dext' < d`` the far-side bound asks the depths
  ``(d - dext') // 2 + 1`` to ``d`` for ``w``'s color alone; with
  ``dext' >= d`` it asks it of depths 1 to ``d``, and at ``a == 1``
  ``u``'s own test rejects ``cin = {color(w)}`` unless ``dext' == d``.  So
  every key of the segment at ``d < 2a - 2 + dext'`` fails, and the scan
  starts the segment there.  The depths skipped yield nothing, and the
  near-outside bound only tightens as ``d`` grows, so a -1 among them
  would come again at the next depth scanned, which ends the scan with the
  same yields.  Without ``b`` in ``cy`` the near-outside bound ends the
  scan by depth ``dext' + 1 <= din + 2``, and it stays the depth scan.
* Ties.  With ``dext == din``, a prefix vertex ``u`` at depth ``k`` sees
  the outside, at ``k + din``, only when no chosen inside vertex is
  nearer.  Then every chosen vertex at depth ``din`` is exactly ``k + din``
  away (one below the child of ``v`` above ``u`` would be nearer), so
  ``u`` already sees all of ``cin`` there.  So every vertex sees the same
  color sets under ``cext``, under ``cext & ~cin``, and (when ``cext`` lies
  within ``cin``) with no outside at all: those keys have one value, and
  only the canonical one is built.  The split scan yields the same pairs
  for each form once its subkeys are canonical: ``cx`` and ``cy`` are
  ``cin | cext`` in every form, the both-sides left key's outside is
  ``(cb | tied) & ~ca`` in every form (the colors of ``cin`` outside
  ``ca`` are in ``cb``), and ``v``'s own test accepts the same masks.  So
  values, first argmins and witnesses do not change.  A tie key is built
  in four places, each through ``_tie_key``: ``_side_keys`` at ``d ==
  dext``, the both-sides left key of a split with ``dmin == din``, a right
  key at ``din - 1`` under an outside at ``din - 1`` that does not land,
  and a landing that ends on a tie.  On a caterpillar with a 35-vertex
  spine and 3 colors, keeping the outside colors of ``cin`` took 487 keys
  against 422.

From outside the fill, keys enter the table through ``dp_entry`` alone,
the root keys included.  Step 1 runs where keys are generated, never on a
key already built: the root keys come from ``_side_keys``, which runs
it, so ``dp_entry`` asks its caller for keys that pass, as the
recursion, ``_compute``, does.  The callers of ``_compute`` read steps 2
and 3, so it starts at step 4.  There
``_subkey_pairs`` sends a chosen ``v``'s key straight to its one split,
and meets every other key with the three cases of a split (both sides
attain ``din``, the child's side alone, the left side alone).  The
near-outside bound, ``v``'s own test and the far-side bound live in
``_need``, run once per distance by ``_side_keys`` (per distance scanned by
``_run_side_keys``) and on the fixed sides of a split by ``_subkey_pairs``;
both take masks within the level at ``din``, so their keys pass the
exact-depth test.  A landing key keeps its level and needs only
``_run_landing``'s tie test.

Witnesses.  The table stores values alone.  ``reconstruct_witness`` walks
the chosen keys from a solved key with an explicit stack.  A first-child
key that ``dp_entry`` stored follows its landing.  Every other key re-runs
``_subkey_pairs`` and takes the first pair whose stored values sum to
the key's value.  A side's stored value is 0 for an empty inside, 1 for
a key of ``T_0``, the memo's otherwise, or ``stretch``'s for a vertex; a
pair with a side never stored is passed over.  That pair is the fill's
first argmin ``P``, the pair the fill's best total last dropped to.  The
fill evaluates every left side, and a right side only where the left
value is below the best total so far, which it replaces only by a
strictly smaller one.  So the key's value ``val`` is the least total over
all pairs (a pair whose right side it skipped totals at least that best).
The first pair totalling ``val`` drops the best to ``val``: its left
value is at most ``val``, below any best above it, so its right side is
evaluated; no later pair drops the best further.  So that pair is ``P``,
and every pair before it totals more than ``val``.  Stored
values are exact, whichever key stored them, so the walk passes over
every pair before ``P``; the fill evaluated and stored both sides of
``P``, which sum to ``val``.  The walk computes and stores nothing.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

from .graph import Certificate, ColoredGraph, PreconditionError, _is_vertex

#: "No chosen vertex here" for a distance, and "infeasible" for a value: a
#: one-digit int above every distance and value (see "State").
INF = (1 << 30) - 1

#: Keys carry two color masks; beyond this many colors the table would be
#: astronomically large, so the solver refuses (Python ints would cope, the
#: machine would not).
DEFAULT_COLOR_CAP = 16


class RootedTree:
    """A colored tree rooted for prefix dynamic programming.

    Children are ordered by ascending vertex id.  Precomputes, per child
    prefix, its depth (``_top``), the color masks available at each exact
    depth, their running unions by depth, and the LCA of each such level;
    and, per vertex, the nearest ancestor-or-self depth of each color.
    The solver uses those to prune infeasible keys.  The color and LCA
    rows hold the deepest level first and are shared along first children
    (a one-child run keeps one row), so a row may be longer than a prefix
    that reads it: the solver indexes ``_pref``, ``_lca`` and ``_near``
    directly (in ``_side_keys``, ``_run_side_keys``, ``_subkey_pairs`` and
    ``_need``), and every read is bounded by the prefix's ``_top``.

    The run index ``run`` holds, for each vertex with exactly one child, a
    pair ``(path, pos)``: ``path`` is its maximal run of one-child vertices
    top-down followed by the vertex below the run's last one, and ``pos`` is
    the vertex's index in it (``None`` for every other vertex).  The solver
    uses it to resolve a one-child run in one hop.  ``_seg_end`` holds, for
    each vertex of a run's path, the depth of the last vertex of its
    monochrome stretch: the path's vertices from it down, the bottom one
    included, while they keep its color.
    """

    __slots__ = ("graph", "root", "parent", "children", "color_bit",
                 "run", "_seg_end", "_depth", "_up", "_pref", "_top", "_near",
                 "_lca", "_submasks")

    def __init__(self, g: ColoredGraph, root: int):
        if not g.is_tree:
            raise PreconditionError("graph must be a tree (connected, n-1 edges)")
        if not _is_vertex(g, root):
            raise PreconditionError(f"root {root} not in graph")
        self.graph = g
        self.root = root
        n = g.n
        adj = g.adjacency
        parent = [0] * (n + 1)
        depth = [0] * (n + 1)
        children: list[tuple[int, ...]] = [()] * (n + 1)
        order = [root]
        parent[root] = 0
        seen = bytearray(n + 1)
        seen[root] = 1
        for u in order:
            kids = []
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    kids.append(w)
            children[u] = tuple(kids)  # adjacency is sorted => ascending ids
            order.extend(kids)
        self.parent = parent
        self.children = tuple(children)
        self.color_bit = tuple(0 if v == 0 else 1 << (g.color[v] - 1)
                               for v in range(n + 1))
        self._depth = depth
        # BFS order meets each run at its top first
        run: list = [None] * (n + 1)
        seg_end = [0] * (n + 1)
        color = g.color
        for u in order:
            if len(children[u]) == 1 and run[u] is None:
                path = [u]
                while len(children[path[-1]]) == 1:
                    path.append(children[path[-1]][0])
                path = tuple(path)
                x = path[-1]
                end = seg_end[x] = depth[x]
                for pos in range(len(path) - 2, -1, -1):
                    if color[path[pos]] != color[x]:
                        end = depth[path[pos]]
                    x = path[pos]
                    run[x] = (path, pos)
                    seg_end[x] = end
        self.run = run
        self._seg_end = seg_end
        # per vertex x, from x up to the root: (depth, mask) steps where mask
        # holds the colors whose nearest ancestor-or-self of x lies at that
        # depth or deeper; at most one step per color
        up: list = [()] * (n + 1)
        for u in order:
            bit = last = self.color_bit[u]
            steps = [(depth[u], bit)]
            for d, mask in up[parent[u]]:
                mask |= bit
                if mask != last:
                    steps.append((d, mask))
                    last = mask
            up[u] = steps
        self._up = up
        # per child prefix T_i(v), built bottom-up: the colors at each depth
        # and the LCA of the prefix's vertices at each depth, both deepest
        # level first (depth d at index _top[v][i] - d), and the
        # running unions of the colors by depth.  The last prefix is T(v).
        # T_1(v) is T(v_1) one level up, so v appends itself to its first
        # child's rows instead of copying them; a row is thus shared along
        # first children and may run longer than a prefix that reads it, so
        # every read is bounded by the prefix's top in `_top`.  Only v's
        # parent reads or extends the rows of T(v) here, so they hold
        # exactly top + 1 entries when it does.
        pref: list = [None] * (n + 1)
        tops: list = [None] * (n + 1)
        near: list = [None] * (n + 1)
        lcas: list = [None] * (n + 1)
        for u in reversed(order):
            colors = bit = self.color_bit[u]
            arr, lca, top = [bit], [u], 0
            arrs, ltops, rows, lrows = [arr], [0], [[0, bit]], [lca]
            for w in children[u]:
                warr, wlca = pref[w][-1], lcas[w][-1]
                colors |= near[w][-1][-1]
                if not top:     # the first child
                    warr.append(bit)
                    wlca.append(u)
                    arr, lca, top = warr, wlca, len(warr) - 1
                else:
                    # depths 0..m, which both parts reach, now meet at u;
                    # deeper levels keep the taller part's LCA.  The taller
                    # row is copied and the shorter one ORed into it.
                    m = min(top, len(warr))
                    if len(warr) > top:
                        short, off = arr, len(warr) - top
                        arr, lca, top = warr + [0], wlca + [u], len(warr)
                    else:
                        short, off = warr, top - len(warr)
                        arr, lca = arr[:], lca[:]
                    for k, mask in enumerate(short):
                        arr[off + k] |= mask
                    lca[top - m:] = [u] * (m + 1)
                arrs.append(arr)
                ltops.append(top)
                rows.append(_running_union(reversed(arr), colors))
                lrows.append(lca)
            pref[u] = arrs
            tops[u] = ltops
            near[u] = rows
            lcas[u] = lrows
        self._pref = pref
        self._top = tops
        self._near = near
        self._lca = lcas
        self._submasks: dict = {}   # level mask -> its nonempty submasks

    def eta(self, v: int) -> int:
        return len(self.children[v])


def _running_union(masks, full: int) -> list:
    """``out[r]`` = union of the first ``r`` of ``masks``, cut once it
    reaches ``full``, the union of all of ``masks``."""
    out = [0]
    acc = 0
    for mask in masks:
        if acc == full:
            break
        acc |= mask
        out.append(acc)
    return out


def root_tree(g: ColoredGraph, root: int = 1) -> RootedTree:
    """Root a colored tree; children are ordered by ascending id."""
    return RootedTree(g, root)


class DPTable:
    """Memo of prefix-solution minima.

    ``memo`` maps full keys to values, ints that are finite or ``INF`` (see
    "State"); ``size`` and ``sizes_by_prefix`` feed the complexity-envelope
    checks and benchmark reporting.  The fill
    stores only the keys it computes: finite ``din`` and ``i >= 2``, or
    ``din == 0`` and ``i >= 1``.  Every key the fill stores is canonical
    (see "State"), so a tie of inside and outside is stored in one form.
    An empty inside (worth 0), a key of ``T_0`` (worth 1) and a first-child
    prefix's key with finite ``din >= 1`` (worth its landing's value) are
    in the memo only where :func:`dp_entry` was asked for them, the root
    keys included.  ``stretch`` maps a vertex of a run's path to the
    ``(value, key)`` of :func:`_stretch_min`.  The table holds no argmins:
    :func:`reconstruct_witness` finds them again from these values (see
    "Witnesses").
    """

    __slots__ = ("memo", "stretch")

    def __init__(self):
        self.memo: dict = {}
        self.stretch: dict = {}

    @property
    def size(self) -> int:
        return len(self.memo)

    def sizes_by_prefix(self) -> Counter:
        counts: Counter = Counter()
        for key in self.memo:
            counts[(key[0], key[1])] += 1
        return counts


def _nonempty_submasks(mask: int) -> tuple:
    """Nonempty submasks of ``mask`` in decreasing numeric order."""
    out = []
    s = mask
    while s:
        out.append(s)
        s = (s - 1) & mask
    return tuple(out)


def _need(tree: RootedTree, v: int, i: int, din, dext, cext: int) -> int:
    """Colors that the inside mask ``cin`` of a key of ``T_i(v)`` with
    ``din``/``dext``/``cext`` must hold to pass the near-outside bound,
    ``v``'s own test and the far-side bound, or -1 when no mask can
    (``-1 & ~cin`` is never 0).

    Near-outside bound: with the outside nearer (``dext < din``), a prefix
    vertex at depth ``k`` with ``2k < din - dext`` sees the outside at
    ``k + dext`` and the inside no nearer than ``din - k``, so it sees the
    colors ``cext`` alone; every color at those depths (all of the prefix
    when ``din`` is ``INF``) must lie in ``cext``.  Otherwise ``v`` must
    find its color among the sets at ``din`` (and at ``dext`` on a tie).

    Far-side bound (``din >= 2``; at ``din == 1`` the exact-depth test
    decides the same keys): a vertex at depth ``k`` with
    ``2k > din - dext`` on the path from ``v`` to the LCA of the prefix's
    level ``din`` sees the colors ``cin`` alone, so its color must lie in
    ``cin``.
    """
    if dext < din:
        near = tree._near[v][i]   # RootedTree.near, read inline: a hot path
        if din == INF:
            return -1 if near[-1] & ~cext else 0
        r = (din - dext + 1) // 2
        if near[r if r < len(near) else -1] & ~cext:
            return -1
        k, need = (din - dext) // 2 + 1, 0
    else:
        bit = tree.color_bit[v]
        k, need = 1, (0 if dext == din and cext & bit else bit)
    if din < 2:
        return need
    top = tree._top[v][i]         # RootedTree.far, read inline: a hot path
    if din > top:
        return need
    x = tree._lca[v][i][top - din]
    if x == v:
        return need
    t = tree._depth[v] + k
    for depth, mask in tree._up[x]:
        if depth < t:
            break
        need |= mask              # the masks only grow up the steps
    return need


def _tie_key(v: int, i: int, d: int, cin: int, cext: int) -> tuple:
    """The canonical key of ``T_i(v)`` whose inside and outside both lie at
    distance ``d`` (see "Ties"): the outside keeps only its colors missing
    from ``cin``, and none left is stored as ``(INF, 0)``."""
    cext &= ~cin
    return (v, i, d, d, cin, cext) if cext else (v, i, d, INF, cin, 0)


def _side_keys(tree: RootedTree, u: int, j: int, d0: int, dext, cext: int):
    """Yield the canonical keys of ``T_j(u)`` with inside distance ``d0`` or
    more under the outside ``dext``/``cext``, in scan order (distance
    ascending, masks descending), leaving out those that fail the color
    tests (worth ``INF``, never an argmin).  A key at ``d == dext`` is the
    tie's one form (:func:`_tie_key`), which drops the outside colors in
    its mask.

    When the empty inside passes the color tests it is yielded alone (see
    "Empty side"); otherwise it fails them and is not yielded.  The masks
    are the nonempty submasks of each level, so they pass the exact-depth
    test.  :func:`_need` runs once per distance; it gives -1 only past
    ``dext``, where its near-outside bound only tightens, so -1 ends the scan.
    """
    near, top, pref = tree._near[u][j], tree._top[u][j], tree._pref[u][j]
    if not near[-1] & ~cext:    # _need at din == INF, inline: a hot path
        yield (u, j, INF, dext, 0, cext)
        return
    submasks = tree._submasks
    for d in range(d0, top + 1):
        need = _need(tree, u, j, d, dext, cext)
        if need < 0:
            return
        level = pref[top - d]
        masks = submasks.get(level)
        if masks is None:
            masks = submasks[level] = _nonempty_submasks(level)
        for mask in masks:
            if not need & ~mask:
                if dext < d:
                    yield (u, j, d, dext, mask, cext)
                elif dext == d:
                    yield _tie_key(u, j, d, mask, cext)
                else:
                    yield (u, j, d, INF, mask, 0)


def _subkey_pairs(tree: RootedTree, key: tuple):
    """Yield the ``(left, right)`` canonical subkeys of a key with finite
    ``din`` and ``i >= 1``, one pair per split in the documented order,
    leaving out the pairs with a subkey that fails the color tests (worth
    ``INF``, never an argmin), so every subkey yielded passes them.

    A split ``(da, ca, db, cb)`` gives the nearest distance and colors seen
    inside ``T_{i-1}(v)`` (left) and inside ``T(v_i)`` (right).  The left
    part's outside is the nearer of ``T(v_i)`` and the old outside; the
    child's is the nearer of the left part and the old outside, one hop
    farther.  A chosen ``v`` (``din == 0``, so the key is ``(v, i, 0, INF,
    bit(v), 0)``) goes straight to its one split, whose left part is
    chosen: the left key ``(v, i - 1, 0, INF, bit(v), 0)`` stays fixed and
    the child's keys come from the left-only branch's right scan, from
    distance 0 under ``color(v)`` at distance 1; no other branch is tested,
    since ``T(v_i)`` holds nothing at distance -1.  Where one side stays
    fixed, the other side's keys come from the one scan :func:`_side_keys`
    (or :func:`_run_side_keys`), which runs their color tests.

    ``key`` must pass the color tests.  Every subkey then passes the
    exact-depth test: its mask lies within ``la`` or ``ra``, the colors of
    ``cin`` at that depth on its side (a chosen ``v``'s left mask is
    ``bit(v)``, the level at distance 0).  Where a left subkey keeps the
    key's nearest distance and outside, its near-outside and own tests
    follow from the key's and are not repeated.  Its far-side test does
    not, since ``T_{i-1}(v)`` has its own LCA at each level and ``ca`` may
    be smaller than ``cin``, so those left keys are checked against it
    here, and the fixed child keys against :func:`_need`.

    A subkey of a first-child prefix with finite ``din >= 1`` is yielded
    landed (see :func:`_run_landing`), so none reaches :func:`_compute`: a
    left key of ``T_1(v)`` (``i == 2``) and a right key of a one-child
    child.  Where a landing is worth ``INF``, a left key's pairs are left
    out, and so is the branch of a fixed right key, while a right key from
    a scan is yielded as ``None``.  Under a fixed left key, a one-child
    child with its color in ``cy`` takes its keys from
    :func:`_run_side_keys`, which may yield a vertex for a key.
    """
    v, i, din, dext, cin, cext = key
    child = tree.children[v][i - 1]
    eta = len(tree.children[child])
    run = tree.run[child]
    if not din:
        # a chosen v's one split, whose right scan is the left-only branch's
        left, dy, cy = (v, i - 1, 0, INF, cin, 0), 1, cin
    else:
        dmin = dext if dext < din else din    # nearest chosen of all, from v
        land = run and din >= 2               # right keys at din - 1 >= 1 land
        lland = i == 2                        # left keys at din >= 1 land
        # the colors of cin at depth din on each side
        top = tree._top[v][i - 1]
        la = tree._pref[v][i - 1][top - din] & cin if din <= top else 0
        top = tree._top[child][eta]
        ra = tree._pref[child][eta][top - din + 1] & cin if din <= top + 1 else 0
        # colors a left key attaining din must hold: its near-outside and own
        # tests pass under cin | cext, as the key's do, leaving its far side
        fa = _need(tree, v, i - 1, din, dmin, cin | cext) if la and din >= 2 else 0
        # a fixed child key attaining din - 1 sees the outside at dmin + 1
        # (canonicalized), the same in the first two branches
        rx, ry = (dmin + 1, cext) if dmin <= din - 2 else (INF, 0)
        rn = _need(tree, child, eta, din - 1, rx, ry) if ra else -1
        rtie = rx == din - 1 and not land     # an unlanded right key on a tie
        # both sides attain din; distribute each color of cin, all in la | ra,
        # left/right/both
        if la and ra and not fa & ~la:
            tied = cext if dext == din else 0
            options = []
            rest = cin
            while rest:
                bit = rest & -rest
                rest ^= bit
                opts = []
                if la & bit:
                    opts.append((bit, 0))
                if ra & bit and not fa & bit:
                    opts.append((0, bit))
                if la & ra & bit:
                    opts.append((bit, bit))
                options.append(opts)
            for picks in itertools.product(*options):
                ca = cb = 0
                for a, b in picks:
                    ca |= a
                    cb |= b
                if ca and cb and not rn & ~cb:
                    left = ((v, i - 1, din, dmin, ca, cext) if dmin < din
                            else _tie_key(v, i - 1, din, ca, cb | tied))
                    if lland:
                        left = _run_landing(tree, left)
                        if left is None:
                            continue
                    right = (_tie_key(child, eta, din - 1, cb, ry) if rtie
                             else (child, eta, din - 1, rx, cb, ry))
                    yield left, _run_landing(tree, right) if land else right
        # only the child side attains din; the left part is farther (or
        # empty), so the child's key is fixed and the left sees the outside
        # at `dmin`
        if ra == cin and not rn & ~cin:
            cx = (cin if dmin == din else 0) | (cext if dext == dmin else 0)
            right = (_tie_key(child, eta, din - 1, cin, ry) if rtie
                     else (child, eta, din - 1, rx, cin, ry))
            if land:
                right = _run_landing(tree, right)
            if right is not None:
                for left in _side_keys(tree, v, i - 1, din + 1, dmin, cx):
                    if lland and left[2] != INF:
                        left = _run_landing(tree, left)
                        if left is None:
                            continue
                    yield left, right
        # only the left part attains din; the child side is farther (or
        # empty), so the left key is fixed and the child sees the outside at
        # `dmin + 1`
        if la != cin or fa & ~cin:
            return
        left = (v, i - 1, din, dext, cin, cext)
        if lland:
            left = _run_landing(tree, left)
            if left is None:
                return
        dy = dmin + 1
        cy = (cin if dmin == din else 0) | (cext if dext == dmin else 0)
    if run and tree.color_bit[child] & cy:
        for right in _run_side_keys(tree, child, din, dy, cy):
            yield left, right
    else:
        for right in _side_keys(tree, child, eta, din, dy, cy):
            yield left, (_run_landing(tree, right) if run and 0 < right[2] < INF
                         else right)


def _run_side_keys(tree: RootedTree, u: int, d0: int, dext: int, cext: int):
    """The keys of ``_side_keys(tree, u, 1, d0, dext, cext)`` for a one-child
    ``u``, landed (see :func:`_run_landing`), scanned by color segment along
    ``u``'s run (see "Monochrome stretches"); ``u``'s color must be in
    ``cext`` and ``dext <= d0 + 1``.  The keys from ``d0`` to the end of
    ``u``'s stretch are one candidate: the chosen key of its first vertex
    when that is its last, else the vertex itself, which :func:`_compute`
    resolves with :func:`_stretch_min`.  A later segment ``[a, e]`` is
    scanned from depth ``2a - 2 + dext``, or at ``e`` alone when that lies
    past ``e``, so that :func:`_need`'s -1 still ends the scan within a
    segment.  Below the run the scan is :func:`_side_keys`'s.
    """
    if not tree._near[u][1][-1] & ~cext:
        yield (u, 1, INF, dext, 0, cext)
        return
    path, pos = tree.run[u]
    top, seg_end, bits = tree._depth[u], tree._seg_end, tree.color_bit
    a = lo = d0
    e = seg_end[u] - top
    if d0 <= e:
        w = path[pos + d0]
        yield w if d0 < e else (w, len(tree.children[w]), 0, INF, bits[w], 0)
        a, lo = e + 1, 2 * e + dext
    end = len(path) - pos           # the depth just below the run
    while a < end:
        e = seg_end[path[pos + a]] - top
        for d in range(lo if lo < e else e, e + 1):
            need = _need(tree, u, 1, d, dext, cext)
            if need < 0:
                return
            bit = bits[path[pos + d]]
            if not need & ~bit:
                yield _run_landing(tree, (u, 1, d, dext, bit, cext) if dext <= d
                                   else (u, 1, d, INF, bit, 0))
        a, lo = e + 1, 2 * e + dext   # 2a - 2 + dext at the next segment
    for key in _side_keys(tree, u, 1, a, dext, cext):
        yield _run_landing(tree, key)


def _stretch_min(tree: RootedTree, w: int, table: DPTable):
    """``(value, key)`` of the first minimum, the nearest on ties, of the
    chosen keys ``(x, eta(x), 0, INF, bit(x), 0)`` over the vertices ``x``
    from ``w`` down its monochrome stretch.  Every one of those keys is
    computed, as by the scan it replaces.  ``table.stretch`` is filled
    bottom-up from the first vertex that it already holds, so each key
    finds the minimum below it stored and does not recurse down the stretch.
    """
    stretch = table.stretch
    best = stretch.get(w)
    if best is None:
        path, pos = tree.run[w]
        end = pos + tree._seg_end[w] - tree._depth[w]
        p = pos + 1
        while p <= end and path[p] not in stretch:
            p += 1
        best = stretch[path[p]] if p <= end else (INF, None)
        for x in reversed(path[pos:p]):
            key = (x, len(tree.children[x]), 0, INF, tree.color_bit[x], 0)
            val = _value(tree, key, table)
            if val <= best[0]:
                best = (val, key)
            stretch[x] = best
    return best


def _run_landing(tree: RootedTree, key: tuple):
    """The key that a finite key with ``din >= 1`` of a first-child prefix
    ``T_1(v)`` resolves to (see "First-child prefixes"), or ``None`` when
    the walk's tie vertex fails its color test and the key is worth ``INF``.

    ``v`` and every vertex between it and ``w`` stay unchosen: the walk goes
    one hop to ``v``'s first child ``v_1``, then down ``v_1``'s one-child run,
    ``j = min(din, 1 + one-child steps left from v_1)`` hops in all, and
    lands on ``T(w)`` with ``din - j`` inside and ``dext + j`` outside.
    When ``din - j >= 1``, ``w`` does not have exactly one child, so the
    landing key is no first-child prefix's and never lands again.  Its
    callers land a key where it is requested: :func:`dp_entry` and
    :func:`_subkey_pairs`, for the split loop's left and right keys.
    """
    v, _i, din, dext, cin, cext = key
    u = tree.children[v][0]
    run = tree.run[u]
    if run is None:
        j, w = 1, u
    else:
        path, pos = run                 # u is path[pos], depth t is path[pos + t - 1]
        j = min(din, len(path) - pos)
        w = path[pos + j - 1]
    if dext < din and not (din - dext) & 1:
        m = (din - dext) // 2        # the vertex that ties inside and outside
        if m <= j and not tree.color_bit[u if m == 1 else path[pos + m - 1]] & (cin | cext):
            return None
    din -= j
    dext += j
    eta = len(tree.children[w])
    if dext < din:
        return (w, eta, din, dext, cin, cext)
    if dext == din:
        return _tie_key(w, eta, din, cin, cext)
    return (w, eta, din, INF, cin, 0)


def _value(tree: RootedTree, key: tuple, table: DPTable):
    """Value of a key that passes the color tests and does not land: 0
    for an empty inside (step 2) and 1 for a key of ``T_0(v)`` (step 3),
    with no memo lookup and no store; any other key is read from the memo,
    or computed and stored."""
    if key[2] == INF:
        return 0
    if not key[1]:
        return 1
    memo = table.memo
    val = memo.get(key)
    if val is None:
        val = memo[key] = _compute(tree, key, table)
    return val


def dp_entry(tree: RootedTree, key: tuple, table: DPTable):
    """Minimum chosen vertices inside the prefix for ``key`` (or ``INF``).

    The one way a key enters the table from outside the fill, the root scan
    included; unlike the fill, it stores every key it is given.  ``key``
    must be canonical (see "State"), a tie in its one form included, and
    pass the color tests, as every key of :func:`_side_keys` does; that is
    assumed, not checked, as for :func:`_compute`.  A key of a first-child
    prefix with finite ``din >= 1`` (see "First-child prefixes") is landed
    with :func:`_run_landing` and stored with the landing key's value; any
    other key is resolved by :func:`_value`.  So no such key reaches
    :func:`_compute`.
    """
    memo = table.memo
    val = memo.get(key)
    if val is None:
        i, din = key[1:3]
        if i == 1 and 0 < din < INF:
            land = _run_landing(tree, key)
            val = INF if land is None else _value(tree, land, table)
        else:
            val = _value(tree, key, table)
        memo[key] = val
    return val


def _compute(tree: RootedTree, key: tuple, table: DPTable):
    """Value of a key with finite ``din`` and ``i >= 1`` that passes the
    color tests and does not land: ``i >= 2``, or ``din == 0`` (a chosen
    ``v``).  It runs no color test, as every key that reaches it passes
    them.

    :func:`_subkey_pairs` yields subkeys already landed (a right ``None`` is
    worth ``INF``).  A monochrome stretch comes as a vertex, and
    :func:`_stretch_min` gives its first minimum.  A subkey with an empty
    inside is worth 0 and one of ``T_0`` is worth 1; both are read here, as
    in :func:`_value`, with no memo lookup, call or store.  A right side is
    evaluated only where its left value is below the best total so far, and
    the best total is replaced only by a strictly smaller one (see
    "Witnesses").
    """
    memo = table.memo
    best = INF
    for left_key, right_key in _subkey_pairs(tree, key):
        if left_key[2] == INF:
            left = 0
        elif left_key[1]:
            left = memo.get(left_key)
            if left is None:
                left = memo[left_key] = _compute(tree, left_key, table)
        else:
            left = 1
        if left >= best or right_key is None:
            continue
        if right_key.__class__ is int:
            right = _stretch_min(tree, right_key, table)[0]
        elif right_key[2] == INF:
            right = 0
        elif right_key[1]:
            right = memo.get(right_key)
            if right is None:
                right = memo[right_key] = _compute(tree, right_key, table)
        else:
            right = 1
        total = left + right
        if total < best:
            best = total
    return best


def reconstruct_witness(tree: RootedTree, key: tuple, table: DPTable) -> frozenset:
    """Chosen vertices of the first argmin realizing a solved finite key.

    Walks the chosen keys from ``key`` with an explicit stack, reading the
    table and storing nothing in it.  A first-child key that
    :func:`dp_entry` stored follows its landing; every other key re-runs
    :func:`_subkey_pairs` and takes the first pair whose stored values sum
    to the key's value, which is the fill's first argmin (see
    "Witnesses").
    """
    memo, stretch = table.memo, table.stretch
    total = memo.get(key)
    if total is None:
        raise ValueError("key has not been solved in this table")
    if total == INF:
        raise ValueError("key is infeasible; no witness exists")

    def stored(key):
        # the value the fill read for a subkey, None where it read none
        return 0 if key[2] == INF else memo.get(key) if key[1] else 1

    acc: set = set()
    stack = [(key, total)]
    while stack:
        key, val = stack.pop()
        v, i, din = key[:3]
        if din == INF:
            continue  # nothing chosen here
        if i == 0:
            acc.add(v)  # din == 0: v alone
        elif i == 1 and din:
            stack.append((_run_landing(tree, key), val))
        else:
            for left, right in _subkey_pairs(tree, key):
                lval = stored(left)
                if lval is None or right is None:
                    continue
                if right.__class__ is int:
                    rval, right = stretch.get(right, (None, None))
                else:
                    rval = stored(right)
                if rval is not None and lval + rval == val:
                    stack += ((left, lval), (right, rval))
                    break
    if len(acc) != total:
        raise AssertionError("reconstruction does not match the table value")
    return frozenset(acc)


def solve_tree_mcs_detailed(g: ColoredGraph, color_cap: int = DEFAULT_COLOR_CAP):
    """Optimal consistent subset of a colored tree via the prefix DP, with
    the rooted tree and the filled table: ``(certificate, tree, table)``."""
    if not g.is_tree:
        raise PreconditionError("graph must be a tree (connected, n-1 edges)")
    if g.c > color_cap:
        raise PreconditionError(
            f"{g.c} colors exceeds the solver's color cap {color_cap}")
    tree = root_tree(g, 1)
    table = DPTable()
    r = tree.root
    eta = tree.eta(r)
    # every color present must be chosen somewhere, so a root key worth
    # that many cannot be beaten by a later one
    floor = tree._near[r][eta][-1].bit_count()
    best = INF
    best_key = None
    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(caller_limit, 4 * g.n + 2000))
    try:
        for key in _side_keys(tree, r, eta, 0, INF, 0):
            val = dp_entry(tree, key, table)
            if val < best:
                best = val
                best_key = key
                if best == floor:
                    break
    finally:
        sys.setrecursionlimit(caller_limit)
    if best == INF or best_key is None:
        raise AssertionError("unreachable: a tree always has a consistent subset")
    witness = reconstruct_witness(tree, best_key, table)
    cert = Certificate("mcs", tuple(sorted(witness)), best, "tree-dp-optimal")
    return cert, tree, table


def solve_tree_mcs(g: ColoredGraph, color_cap: int = DEFAULT_COLOR_CAP) -> Certificate:
    """Optimal consistent subset of a colored tree via the prefix DP."""
    return solve_tree_mcs_detailed(g, color_cap)[0]
