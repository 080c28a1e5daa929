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
prefix vertex ``u``, which has an inside one within ``d(u,v) + din``.
The table value is the minimum number of chosen vertices inside ``T_i(v)``
realizing ``din``/``cin`` such that every vertex of the prefix sees its
own color among its nearest chosen vertices; infeasible keys evaluate to
``INF``.

Recursion.  A key is resolved by case analysis:

1. color tests -- ``v`` itself must see its color among the color sets
   attaining ``min(din, dext)``, the prefix must pass the near-outside
   and far-side bounds below, and every color of ``cin`` must occur at
   exact depth ``din`` (the exact-depth test), else ``INF``;
2. ``din == INF`` (nothing chosen inside): once step 1 passes, every
   prefix color lies in ``cext``, so the key is worth 0;
3. ``i == 0``: ``T_0(v) = {v}`` realizes only ``din == 0``, where step 1
   leaves ``cin == {color(v)}`` (``v`` chosen), worth 1;
4. otherwise split ``din``/``cin`` over the two parts of ``T_i(v)``:
   choose the distance ``da`` and colors ``ca`` seen inside ``T_{i-1}(v)``
   and ``db``/``cb`` inside ``T(v_i)``, subject to ``min(da, db) == din``
   with the colors at the minimum uniting to ``cin``; add the best left
   and right table values.  The left part's outside is the nearer of
   ``T(v_i)`` and the old outside; the child's is the nearer of the left
   part and the old outside, one hop farther.  Both subkeys are
   canonicalized again; an old outside beyond ``din`` changes neither,
   because for each subkey the side attaining ``din`` is its inside or a
   nearer part of its outside.  A chosen ``v`` is the split whose left
   part is chosen: the left key keeps ``din == 0`` and the child sees
   ``color(v)`` at distance 1, nearer than anything beyond ``v``.  An
   unchosen one-child vertex has one split; see "One-child runs".

Color sets are int bitmasks (bit ``k`` = color ``k+1``).  All minima are
taken in a fixed documented order (splits: shared distance first, then
longer left distances ascending, then longer right distances ascending;
masks in decreasing numeric order), and the fill records each split
key's first argmin, which reconstruction follows, so reported witnesses
are deterministic.

Pruning.  Distance ranges are cut by prefix depths and by the colors
available at each exact depth.  Six arguments then drop work whose
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
* One-child runs.  A vertex ``v`` with one child has only the prefix
  ``T_1(v)``, and with finite ``din >= 1`` its part ``T_0(v) = {v}``
  cannot attain ``din``: the key has one split, ``v`` unchosen and the
  child's key fixed, and is worth that key (``v``'s own test makes the
  empty left key worth 0).  The same holds at the child while it has one
  child and a nonzero inside distance, so the solver walks ``j = min(din,
  one-child steps left in v's run)`` hops down to ``w`` and takes the one
  key ``(w, eta(w), din - j, dext + j, cin, cext)``, canonicalized
  (``(INF, 0)`` when ``dext + j > din - j``; the outside only moves away
  along the walk, so this is the key that hop-by-hop canonicalizing
  reaches).  The keys in between are never built.  Every vertex of
  ``T_1(v)`` at depth ``t >= 1`` lies in ``T(w_t)``, the subtree of the
  walk's vertex ``w_t`` at that depth, so the level at ``din``, its LCA
  and the exact-depth test are the same for every key of the walk.
  Hence ``v``'s near-outside bound (depths ``< (din - dext + 1) // 2``)
  and far-side bound (depths ``>= (din - dext) // 2 + 1`` on the path to
  that LCA; at ``din == 1`` the exact-depth test) imply every test of
  every key of the walk but one: where inside and outside tie, ``din -
  dext`` even and ``m = (din - dext) / 2`` with ``1 <= m <= j``, the
  vertex ``w_m`` must have a color in ``cin | cext``, else the key is
  ``INF``.  So the landing key passes the color tests, and values, first
  argmins and witnesses are unchanged.  Branching vertices, a chosen
  ``v`` and leaves keep the split recurrence.  A run key is landed where
  it is requested, so none is computed: the split scan yields a right
  key already landed, so those are never stored (on a path colored
  ``1...1 2`` rooted at the ``1`` end, storing them took n(n+1)/2 keys),
  and ``dp_entry`` stores one it is asked for with its landing's value.
  ``step`` records the landing key either way.
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

From outside the fill, keys enter the table through ``dp_entry`` alone,
the root keys included; it runs all of step 1 (``_admissible``), so a
root key, already scanned, meets those tests twice.  The fill generates
only keys that pass them, so the recursion, ``_compute``, runs none and
starts at step 2.  The near-outside bound, ``v``'s own test and the
far-side bound live in ``_need``, run once per distance by ``_side_keys``
(per distance scanned by ``_run_side_keys``) and on the fixed sides of a
split by ``_subkey_pairs``; both take masks
within the level at ``din``, so their keys pass the exact-depth test.  A
landing key keeps its level and needs only ``_run_landing``'s tie test.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

from .graph import Certificate, ColoredGraph, PreconditionError, _is_vertex

INF = float("inf")

#: Keys carry two color masks; beyond this many colors the table would be
#: astronomically large, so the solver refuses (Python ints would cope, the
#: machine would not).
DEFAULT_COLOR_CAP = 16


class RootedTree:
    """A colored tree rooted for prefix dynamic programming.

    Children are ordered by ascending vertex id.  Precomputes, per child
    prefix, its depth (``depth_limit``), the color masks available at each
    exact depth, their running unions by depth, and the LCA of each such
    level; and, per vertex, the nearest ancestor-or-self depth of each
    color.  The solver uses those to prune infeasible keys.  The color and
    LCA rows hold the deepest level first and are shared along first
    children (a one-child run keeps one row), so a row may be longer than
    a prefix that reads it: every read, whether through ``depth_limit`` or
    a hot path indexing ``_top``, ``_pref`` and ``_near`` directly, is
    bounded by the prefix's ``_top``.

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
        # level first (depth d at index depth_limit(v, i) - d), and the
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

    def depth_limit(self, v: int, i: int) -> int:
        """Largest hop distance from ``v`` realized inside ``T_i(v)``."""
        return self._top[v][i]

    def avail(self, v: int, i: int, d) -> int:
        """Colors present at exact distance ``d`` from ``v`` within ``T_i(v)``."""
        top = self._top[v][i]
        return self._pref[v][i][top - d] if 0 <= d <= top else 0

    def near(self, v: int, i: int, r) -> int:
        """Colors at distance below ``r`` from ``v`` within ``T_i(v)``
        (every color of the prefix when ``r`` is ``INF``)."""
        row = self._near[v][i]
        if r >= len(row):
            return row[-1]
        return row[r] if r > 0 else 0

    def far(self, v: int, i: int, d: int, k: int) -> int:
        """Colors at distance ``k`` (``>= 1``) or more from ``v`` on the path
        from ``v`` down to ``x``, the LCA of the vertices of ``T_i(v)`` at
        distance ``d``; 0 when ``x`` is ``v`` or no vertex lies at ``d``."""
        top = self._top[v][i]
        x = self._lca[v][i][top - d] if 0 <= d <= top else v
        if x == v:
            return 0
        t = self._depth[v] + k
        out = 0
        for depth, mask in self._up[x]:
            if depth < t:
                break
            out = mask
        return out


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

    ``memo`` maps full keys to values; ``size`` and ``sizes_by_prefix`` feed
    the complexity-envelope checks and benchmark reporting.  ``step`` maps
    every stored key with a finite value, a finite ``din`` and ``i >= 1`` to
    the keys holding its chosen vertices, which witness reconstruction
    follows: a split key's first argmin, the ``(left, right)`` subkey pair,
    or a run key's one-key ``(landing,)`` (see :func:`dp_entry`).
    ``stretch`` maps a vertex of a run's path to the ``(value, key)`` of
    :func:`_stretch_min`.
    """

    __slots__ = ("memo", "step", "stretch")

    def __init__(self):
        self.memo: dict = {}
        self.step: dict = {}
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
    return need | tree.far(v, i, din, k) if din >= 2 else need


def _admissible(tree: RootedTree, v: int, i: int, din, dext, cin: int,
                cext: int) -> bool:
    """Color tests that every feasible canonical key passes: :func:`_need`
    and the exact-depth test (every color of ``cin`` occurs at depth
    ``din``).  The fill generates only keys that pass them."""
    return (not _need(tree, v, i, din, dext, cext) & ~cin
            and tree.avail(v, i, din) & cin == cin)


def _side_keys(tree: RootedTree, u: int, j: int, d0: int, dext, cext: int):
    """Yield the canonical keys of ``T_j(u)`` with inside distance ``d0`` or
    more under the outside ``dext``/``cext``, in scan order (distance
    ascending, masks descending), leaving out those that fail
    :func:`_admissible` (worth ``INF``, never an argmin).

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
                yield (u, j, d, dext, mask, cext) if dext <= d else (u, j, d, INF, mask, 0)


def _subkey_pairs(tree: RootedTree, key: tuple):
    """Yield the ``(left, right)`` canonical subkeys of a key with finite
    ``din`` and ``i >= 1``, one pair per split in the documented order,
    leaving out the pairs with a subkey that fails :func:`_admissible`
    (worth ``INF``, never an argmin), so every subkey yielded passes it.

    A split ``(da, ca, db, cb)`` gives the nearest distance and colors seen
    inside ``T_{i-1}(v)`` (left) and inside ``T(v_i)`` (right).  The left
    part's outside is the nearer of ``T(v_i)`` and the old outside; the
    child's is the nearer of the left part and the old outside, one hop
    farther.  A chosen ``v`` (``din == 0``) is the split whose left part is
    chosen: ``T(v_i)`` holds nothing at distance -1, so only the last
    branch yields.  Where one side stays fixed, the other side's keys come
    from the one scan :func:`_side_keys`, which runs their color tests.

    ``key`` must pass :func:`_admissible`.  Every subkey then passes the
    exact-depth test: its mask lies within ``la`` or ``ra``, the colors of
    ``cin`` at that depth on its side.  Where a left subkey keeps the key's
    nearest distance and outside, its near-outside and own tests follow
    from the key's and are not repeated.  Its far-side test does not, since
    ``T_{i-1}(v)`` has its own LCA at each level and ``ca`` may be smaller
    than ``cin``, so those left keys are checked against it here, and the
    fixed child keys against :func:`_need`.

    A right key of an unchosen one-child child (finite ``din >= 1``) is
    yielded landed (see :func:`_run_landing`), or as ``None`` when its
    landing is worth ``INF``, so no run key reaches :func:`_compute`.  Under
    a fixed left key, a one-child child with its color in ``cy`` takes its
    keys from :func:`_run_side_keys`, which may yield a vertex for a key.
    """
    v, i, din, dext, cin, cext = key
    child = tree.children[v][i - 1]
    eta = len(tree.children[child])
    dmin = dext if dext < din else din        # nearest chosen of all, from v
    run = tree.run[child]
    land = run and din >= 2                   # right keys at din - 1 >= 1 land
    la = tree.avail(v, i - 1, din) & cin
    ra = tree.avail(child, eta, din - 1) & cin
    # colors a left key attaining din must hold: its near-outside and own
    # tests pass under cin | cext, as the key's do, leaving its far side
    fa = _need(tree, v, i - 1, din, dmin, cin | cext) if la and din >= 2 else 0
    # a fixed child key attaining din - 1 sees the outside at dmin + 1
    # (canonicalized), the same in the first two branches
    rx, ry = (dmin + 1, cext) if dmin <= din - 2 else (INF, 0)
    rn = _need(tree, child, eta, din - 1, rx, ry) if ra else -1
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
                        else (v, i - 1, din, din, ca, cb | tied))
                right = (child, eta, din - 1, rx, cb, ry)
                yield left, _run_landing(tree, right) if land else right
    # only the child side attains din; the left part is farther (or empty),
    # so the child's key is fixed and the left sees the outside at `dmin`
    if ra == cin and not rn & ~cin:
        cx = (cin if dmin == din else 0) | (cext if dext == dmin else 0)
        right = (child, eta, din - 1, rx, cin, ry)
        if land:
            right = _run_landing(tree, right)
        for left in _side_keys(tree, v, i - 1, din + 1, dmin, cx):
            yield left, right
    # only the left part attains din; the child side is farther (or empty),
    # so the left key is fixed and the child sees the outside at `dmin + 1`
    if la == cin and not fa & ~cin:
        left = (v, i - 1, din, dext, cin, cext)
        cy = (cin if dmin == din else 0) | (cext if dext == dmin else 0)
        if run and tree.color_bit[child] & cy:
            for right in _run_side_keys(tree, child, din, dmin + 1, cy):
                yield left, right
        else:
            for right in _side_keys(tree, child, eta, din, dmin + 1, cy):
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
        memo = table.memo
        for x in reversed(path[pos:p]):
            key = (x, len(tree.children[x]), 0, INF, tree.color_bit[x], 0)
            val = memo.get(key)
            if val is None:
                val = memo[key] = _compute(tree, key, table)
            if val <= best[0]:
                best = (val, key)
            stretch[x] = best
    return best


def _run_landing(tree: RootedTree, key: tuple):
    """The key that a finite key with ``din >= 1`` of a one-child vertex's
    ``T_1(v)`` resolves to (see "One-child runs"), or ``None`` when the
    run's tie vertex fails its color test and the key is worth ``INF``.

    ``v`` and every vertex between it and ``w`` stay unchosen: the walk goes
    ``j = min(din, one-child steps left)`` hops down to ``w`` and lands on
    ``T(w)`` with ``din - j`` inside and ``dext + j`` outside.  ``w`` is no
    run vertex when ``din - j >= 1``, so a landing key never lands again.
    Its two callers land a run key where it is requested: :func:`dp_entry`
    and :func:`_subkey_pairs`, for the split loop's right keys.
    """
    v, _i, din, dext, cin, cext = key
    path, pos = tree.run[v]
    j = min(din, len(path) - 1 - pos)
    if dext < din and not (din - dext) & 1:
        m = (din - dext) // 2        # the vertex that ties inside and outside
        if m <= j and not tree.color_bit[path[pos + m]] & (cin | cext):
            return None
    w = path[pos + j]
    din -= j
    dext += j
    if dext > din:
        return (w, len(tree.children[w]), din, INF, cin, 0)
    return (w, len(tree.children[w]), din, dext, cin, cext)


def dp_entry(tree: RootedTree, key: tuple, table: DPTable):
    """Minimum chosen vertices inside the prefix for ``key`` (or ``INF``).

    The one way a key enters the table from outside the fill, the root scan
    included.  ``key`` must be canonical (see "State"); that is assumed,
    not checked.  Its color tests (:func:`_admissible`) run here.  A key of
    an unchosen one-child vertex (see "One-child runs") is landed with
    :func:`_run_landing` and stored with the landing key's value, and a
    finite one records ``(landing,)`` in ``step``; any other key is
    computed.  So no run key reaches :func:`_compute`.
    """
    memo = table.memo
    val = memo.get(key)
    if val is None:
        v, i, din = key[:3]
        if not _admissible(tree, *key):
            val = INF
        elif i and 0 < din < INF and tree.run[v]:
            land = _run_landing(tree, key)
            val = INF if land is None else memo.get(land)
            if val is None:
                val = memo[land] = _compute(tree, land, table)
            if val < INF:
                table.step[key] = (land,)
        else:
            val = _compute(tree, key, table)
        memo[key] = val
    return val


def _compute(tree: RootedTree, key: tuple, table: DPTable):
    """Value of a key that passes :func:`_admissible` and is no run key;
    it runs no color test, as every key that reaches it passes them.

    :func:`_subkey_pairs` yields right subkeys already landed (``None`` is
    worth ``INF``), so ``step`` records a landing key as the argmin's right
    part.  A monochrome stretch comes as a vertex, and :func:`_stretch_min`
    gives its first minimum's key.  A left subkey is never a run key:
    under a one-child ``v`` it is a key of ``T_0(v)``.
    """
    _v, i, din = key[:3]
    if din == INF:
        return 0  # nothing chosen inside, and every prefix color is in cext
    if i == 0:
        return 1  # {v} realizes only din == 0, with cin == {color(v)}
    memo = table.memo
    best = INF
    for left_key, right_key in _subkey_pairs(tree, key):
        left = memo.get(left_key)
        if left is None:
            left = memo[left_key] = _compute(tree, left_key, table)
        if left >= best or right_key is None:
            continue
        right = memo.get(right_key)
        if right is None:
            if right_key.__class__ is int:
                right, right_key = _stretch_min(tree, right_key, table)
            else:
                right = memo[right_key] = _compute(tree, right_key, table)
        total = left + right
        if total < best:
            best = total
            table.step[key] = left_key, right_key
    return best


def reconstruct_witness(tree: RootedTree, key: tuple, table: DPTable) -> frozenset:
    """Chosen vertices of the first argmin realizing a solved finite key.

    Follows ``table.step``, which holds an entry for every stored key with
    a finite value, a finite ``din`` and ``i >= 1``: a split's first argmin
    or a run key's landing, whose chosen vertices are the key's.
    """
    val = table.memo.get(key)
    if val is None:
        raise ValueError("key has not been solved in this table")
    if val == INF:
        raise ValueError("key is infeasible; no witness exists")
    acc: set = set()
    step = table.step
    stack = [key]
    while stack:
        key = stack.pop()
        v, i, din, _dext, _cin, _cext = key
        if din == INF:
            continue  # nothing chosen here
        if i == 0:
            acc.add(v)  # din == 0: v alone
        else:
            stack.extend(step[key])
    if len(acc) != val:
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
    floor = tree.near(r, eta, INF).bit_count()
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
    cert = Certificate("mcs", tuple(sorted(witness)), int(best), "tree-dp-optimal")
    return cert, tree, table


def solve_tree_mcs(g: ColoredGraph, color_cap: int = DEFAULT_COLOR_CAP) -> Certificate:
    """Optimal consistent subset of a colored tree via the prefix DP."""
    return solve_tree_mcs_detailed(g, color_cap)[0]
