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
   attaining ``min(din, dext)``, and the prefix must pass the near-outside
   and far-side bounds below, else ``INF``;
2. ``din == INF`` (nothing chosen inside): once step 1 passes, every
   prefix color lies in ``cext``, so the key is worth 0;
3. every color of ``cin`` must occur at exact depth ``din``, else
   ``INF``; at ``din == 0`` this forces ``cin == {color(v)}`` (``v``
   chosen), the one finite key of ``T_0(v) = {v}``, worth 1;
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
available at each exact depth.  Five arguments then drop work whose
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
  ``v`` and leaves keep the split recurrence.

The color tests of step 1 run once per key, where the key is generated:
in ``_side_keys`` for root keys and scanned sides, in ``_subkey_pairs``
for the fixed sides of a split, and in ``dp_entry`` for a key passed in
from outside; a run's landing key needs only the tie test.  The recursion
itself starts at step 2.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

from .graph import Certificate, ColoredGraph, PreconditionError

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
    a prefix that reads it: every read goes through ``depth_limit``.

    The run index ``run`` holds, for each vertex with exactly one child, a
    pair ``(path, pos)``: ``path`` is its maximal run of one-child vertices
    top-down followed by the vertex below the run's last one, and ``pos`` is
    the vertex's index in it (``None`` for every other vertex).  The solver
    uses it to resolve a one-child run in one hop.
    """

    __slots__ = ("graph", "root", "parent", "children", "color_bit",
                 "run", "_depth", "_up", "_pref", "_top", "_near", "_lca")

    def __init__(self, g: ColoredGraph, root: int):
        if not g.is_tree:
            raise PreconditionError("graph must be a tree (connected, n-1 edges)")
        if not (1 <= root <= g.n):
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
        for u in order:
            if len(children[u]) == 1 and run[u] is None:
                path = [u]
                while len(children[path[-1]]) == 1:
                    path.append(children[path[-1]][0])
                path = tuple(path)
                for pos in range(len(path) - 1):
                    run[path[pos]] = (path, pos)
        self.run = run
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
    each split key with a finite value to its first argmin, the
    ``(left, right)`` subkey pair that witness reconstruction follows.
    """

    __slots__ = ("memo", "step")

    def __init__(self):
        self.memo: dict = {}
        self.step: dict = {}

    @property
    def size(self) -> int:
        return len(self.memo)

    def sizes_by_prefix(self) -> Counter:
        counts: Counter = Counter()
        for key in self.memo:
            counts[(key[0], key[1])] += 1
        return counts


def make_dp_key(v: int, i: int, din, dext, cin: int, cext: int) -> tuple:
    """Validate and build a canonical key: ``dext > din`` becomes ``(INF, 0)``."""
    for d, mask, lo in ((din, cin, 0), (dext, cext, 1)):
        if d == INF:
            if mask != 0:
                raise ValueError("an INF distance requires an empty color mask")
        else:
            if not isinstance(d, int) or d < lo:
                raise ValueError(f"distance {d} out of range (min {lo})")
            if mask == 0:
                raise ValueError("a finite distance requires a nonempty color mask")
    if i < 0:
        raise ValueError("prefix width must be nonnegative")
    if dext > din:
        return (v, i, din, INF, cin, 0)
    return (v, i, din, dext, cin, cext)


def _nonempty_submasks(mask: int):
    """Nonempty submasks of ``mask`` in decreasing numeric order."""
    s = mask
    while s:
        yield s
        s = (s - 1) & mask


def _admissible(tree: RootedTree, v: int, i: int, din, dext, cin: int,
                cext: int) -> bool:
    """Color tests that every feasible canonical key passes.

    Near-outside bound: with the outside nearer (``dext < din``), a prefix
    vertex at depth ``k`` with ``2k < din - dext`` sees the outside at
    ``k + dext`` and the inside no nearer than ``din - k``, so it sees the
    colors ``cext`` alone; every color at those depths must lie in
    ``cext`` (depth 0 is ``v`` itself).  Otherwise ``v`` must find its
    color among the sets at ``din`` (and at ``dext`` on a tie).

    Far-side bound (``din >= 2``; at ``din == 1`` the exact-depth test
    decides the same keys): a vertex at depth ``k`` with
    ``2k > din - dext`` on the path from ``v`` to the LCA of the prefix's
    level ``din`` sees the colors ``cin`` alone, so its color must lie in
    ``cin``.
    """
    if dext < din:
        if din == INF:
            return not tree.near(v, i, INF) & ~cext
        if tree.near(v, i, (din - dext + 1) // 2) & ~cext:
            return False
        k = (din - dext) // 2 + 1
    elif (cin | (cext if dext == din else 0)) & tree.color_bit[v]:
        k = 1
    else:
        return False
    return din < 2 or not tree.far(v, i, din, k) & ~cin


def _side_keys(tree: RootedTree, u: int, j: int, d0: int, dext, cext: int):
    """Yield the canonical keys of ``T_j(u)`` with inside distance ``d0`` or
    more under the outside ``dext``/``cext``, in scan order (distance
    ascending, masks descending), leaving out those that fail
    :func:`_admissible` (worth ``INF``, never an argmin).

    When the empty inside passes the color tests it is yielded alone (see
    "Empty side"); otherwise it fails them and is not yielded.  Past
    ``dext`` the near-outside bound only tightens as the distance grows, so
    the first distance failing it ends the scan.

    The tests of :func:`_admissible` that do not depend on the mask run once
    per distance; what remains per mask is that it hold ``need``: the
    colors of the far-side path and, unless the outside covers it,
    ``color(u)``.
    """
    if not tree.near(u, j, INF) & ~cext:
        yield (u, j, INF, dext, 0, cext)
        return
    bit = tree.color_bit[u]
    for d in range(d0, tree.depth_limit(u, j) + 1):
        if d > dext:
            if tree.near(u, j, (d - dext + 1) // 2) & ~cext:
                return
            k, need = (d - dext) // 2 + 1, 0
        else:
            k, need = 1, (0 if dext == d and cext & bit else bit)
        if d >= 2:
            need |= tree.far(u, j, d, k)
        for mask in _nonempty_submasks(tree.avail(u, j, d)):
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

    ``key`` must pass :func:`_admissible`: where a left subkey keeps the
    key's nearest distance and outside, its near-outside and own tests
    follow from the key's and are not repeated.  Its far-side test does
    not, since ``T_{i-1}(v)`` has its own LCA at each level and ``ca`` may
    be smaller than ``cin``, so those left keys are checked against it
    here, and the fixed child keys are passed through :func:`_admissible`.
    """
    v, i, din, dext, cin, cext = key
    child = tree.children[v][i - 1]
    eta = len(tree.children[child])
    dmin = dext if dext < din else din        # nearest chosen of all, from v
    la = tree.avail(v, i - 1, din) & cin
    ra = tree.avail(child, eta, din - 1) & cin
    # colors that a left key attaining din must hold (far-side bound)
    fa = tree.far(v, i - 1, din, (din - dmin) // 2 + 1) if la and din >= 2 else 0
    # both sides attain din; distribute each color of cin left/right/both
    if la and ra and la | ra == cin and not fa & ~la:
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
            if ca and cb:
                if dmin < din:
                    left = (v, i - 1, din, dmin, ca, cext)
                    cy = cext
                else:
                    left = (v, i - 1, din, din, ca, cb | tied)
                    cy = ca | tied
                right = ((child, eta, din - 1, dmin + 1, cb, cy) if dmin <= din - 2
                         else (child, eta, din - 1, INF, cb, 0))
                if _admissible(tree, *right):
                    yield left, right
    # only the child side attains din; the left part is farther (or empty),
    # so the child's key is fixed and the left sees the outside at `dmin`
    if ra == cin:
        cx = (cin if dmin == din else 0) | (cext if dext == dmin else 0)
        right = ((child, eta, din - 1, dext + 1, cin, cext) if dext <= din - 2
                 else (child, eta, din - 1, INF, cin, 0))
        if _admissible(tree, *right):
            for left in _side_keys(tree, v, i - 1, din + 1, dmin, cx):
                yield left, right
    # only the left part attains din; the child side is farther (or empty),
    # so the left key is fixed and the child sees the outside at `dmin + 1`
    if la == cin and not fa & ~cin:
        left = (v, i - 1, din, dext, cin, cext)
        cy = (cin if dmin == din else 0) | (cext if dext == dmin else 0)
        for right in _side_keys(tree, child, eta, din, dmin + 1, cy):
            yield left, right


def _run_landing(tree: RootedTree, key: tuple):
    """The key that a finite key with ``din >= 1`` of a one-child vertex
    resolves to (see "One-child runs"), or ``None`` when the run's tie
    vertex fails its color test and the key is worth ``INF``.

    ``v`` and every vertex between it and ``w`` stay unchosen: the walk goes
    ``j = min(din, one-child steps left)`` hops down to ``w`` and lands on
    ``T(w)`` with ``din - j`` inside and ``dext + j`` outside.
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

    Key invariants (see :func:`make_dp_key`) are assumed, not re-checked.
    The key's color tests (:func:`_admissible`) run here, once, before it
    is computed; the solver builds only keys that pass them, so
    :func:`_compute` runs none.
    """
    memo = table.memo
    val = memo.get(key)
    if val is None:
        val = _compute(tree, key, table) if _admissible(tree, *key) else INF
        memo[key] = val
    return val


def _compute(tree: RootedTree, key: tuple, table: DPTable):
    """Value of a key that passes :func:`_admissible`."""
    v, i, din, _dext, cin, _cext = key
    if din == INF:
        return 0  # nothing chosen inside, and every prefix color is in cext
    # din must be realizable by colors cin at that exact depth; at din == 0
    # that leaves cin == {color(v)}, v chosen
    if (tree.avail(v, i, din) & cin) != cin:
        return INF
    if i == 0:
        return 1  # only din == 0 is realizable in {v}
    memo = table.memo
    if din and tree.run[v]:
        land = _run_landing(tree, key)
        if land is None:
            return INF
        val = memo.get(land)
        if val is None:
            val = memo[land] = _compute(tree, land, table)
        return val
    best = INF
    for left_key, right_key in _subkey_pairs(tree, key):
        left = memo.get(left_key)
        if left is None:
            left = memo[left_key] = _compute(tree, left_key, table)
        if left >= best:
            continue
        right = memo.get(right_key)
        if right is None:
            right = memo[right_key] = _compute(tree, right_key, table)
        total = left + right
        if total < best:
            best = total
            table.step[key] = left_key, right_key
    return best


def reconstruct_witness(tree: RootedTree, key: tuple, table: DPTable) -> frozenset:
    """Chosen vertices of the first argmin realizing a solved finite key.

    Follows the split argmins that the fill recorded in ``table.step``.  A
    key of an unchosen one-child vertex follows the same landing as
    :func:`_compute`: no vertex above the landing vertex is chosen, so the
    key's chosen vertices are the landing key's.
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
        elif din and tree.run[v]:
            stack.append(_run_landing(tree, key))
        else:
            stack.extend(step[key])
    if len(acc) != val:
        raise AssertionError("reconstruction does not match the table value")
    return frozenset(acc)


def _solve(g: ColoredGraph, color_cap: int):
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
        for key in _side_keys(tree, r, eta, 0, INF, 0):   # each passes its color tests
            val = table.memo[key] = _compute(tree, key, table)
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
    return _solve(g, color_cap)[0]


def solve_tree_mcs_detailed(g: ColoredGraph, color_cap: int = DEFAULT_COLOR_CAP):
    """Like :func:`solve_tree_mcs` but also returns the tree and table."""
    return _solve(g, color_cap)
