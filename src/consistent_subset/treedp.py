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

1. validity -- ``v`` itself must see its color among the color sets
   attaining ``min(din, dext)``, else ``INF``;
2. ``din == 0`` forces ``cin == {color(v)}`` (the nearest chosen vertex is
   ``v`` alone), else ``INF``;
3. ``din == 0`` (``v`` chosen): each child subtree is solved independently
   with the outside contracted to "``color(v)`` at distance 1" -- a chosen
   parent is always at least as close as anything beyond it;
4-6. ``din > 0`` (``v`` not chosen): split ``din``/``cin`` over the two
   parts of ``T_i(v)``: choose the distance ``da`` and colors ``ca`` seen
   inside ``T_{i-1}(v)`` and ``db``/``cb`` inside ``T(v_i)``, subject to
   ``min(da, db) == din`` with the colors at the minimum uniting to
   ``cin``; add the best left and right table values.  The left part's
   outside is the nearer of ``T(v_i)`` and the old outside; the child's is
   the nearer of the left part and the old outside, one hop farther.  Both
   subkeys are canonicalized again; an old outside beyond ``din`` changes
   neither, because for each subkey the side attaining ``din`` is its
   inside or a nearer part of its outside.

Color sets are int bitmasks (bit ``k`` = color ``k+1``).  All minima are
taken in a fixed documented order (splits: shared distance first, then
longer left distances ascending, then longer right distances ascending;
masks in decreasing numeric order), and witness reconstruction re-walks
that order taking the first argmin, so reported witnesses are
deterministic.  Distance ranges are pruned by subtree heights and color
feasibility masks (colors available at an exact depth); pruned keys are
exactly the infeasible ones, so values never change.
"""

from __future__ import annotations

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

    Children are ordered by ascending vertex id.  Precomputes, per vertex,
    subtree heights and the color masks available at each exact depth of
    every child prefix; the solver uses those to prune infeasible keys.
    """

    __slots__ = ("graph", "root", "parent", "children", "height",
                 "color_bit", "_pref", "_subtree")

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
                    kids.append(w)
            children[u] = tuple(kids)  # adjacency is sorted => ascending ids
            order.extend(kids)
        self.parent = parent
        self.children = tuple(children)
        self.color_bit = tuple(0 if v == 0 else 1 << (g.color[v] - 1)
                               for v in range(n + 1))
        height = [0] * (n + 1)
        # colors at each exact depth of the full subtree T(v)
        sub: list = [None] * (n + 1)
        for u in reversed(order):
            kids = children[u]
            h = 0
            for w in kids:
                if height[w] + 1 > h:
                    h = height[w] + 1
            height[u] = h
            arr = [0] * (h + 1)
            arr[0] = self.color_bit[u]
            for w in kids:
                warr = sub[w]
                for d, mask in enumerate(warr):
                    arr[d + 1] |= mask
            sub[u] = arr
        self.height = tuple(height)
        self._subtree = sub
        # colors at each exact depth of every child prefix T_i(v)
        pref: list = [None] * (n + 1)
        for u in order:
            arrs = [[self.color_bit[u]]]
            cur = arrs[0]
            for w in children[u]:
                warr = sub[w]
                nxt = cur + [0] * max(0, len(warr) + 1 - len(cur))
                for d, mask in enumerate(warr):
                    nxt[d + 1] |= mask
                arrs.append(nxt)
                cur = nxt
            pref[u] = arrs
        self._pref = pref

    def eta(self, v: int) -> int:
        return len(self.children[v])

    def depth_limit(self, v: int, i: int) -> int:
        """Largest hop distance from ``v`` realized inside ``T_i(v)``."""
        return len(self._pref[v][i]) - 1

    def avail(self, v: int, i: int, d) -> int:
        """Colors present at exact distance ``d`` from ``v`` within ``T_i(v)``."""
        arr = self._pref[v][i]
        if d == INF or d >= len(arr):
            return 0
        return arr[d]

    def subtree_avail(self, v: int, d) -> int:
        """Colors at exact distance ``d`` from ``v`` within all of ``T(v)``."""
        arr = self._subtree[v]
        if d == INF or d >= len(arr):
            return 0
        return arr[d]

    def subtree_vertices(self, v: int) -> frozenset:
        out = [v]
        for u in out:
            out.extend(self.children[u])
        return frozenset(out)

    def prefix_vertices(self, v: int, i: int) -> frozenset:
        out = [v]
        for w in self.children[v][:i]:
            out.extend(self.subtree_vertices(w))
        return frozenset(out)


def root_tree(g: ColoredGraph, root: int = 1) -> RootedTree:
    """Root a colored tree; children are ordered by ascending id."""
    return RootedTree(g, root)


class DPTable:
    """Memo of prefix-solution minima plus two derived caches.

    ``memo`` maps full keys to values; ``size`` and ``sizes_by_prefix`` feed
    the complexity-envelope checks and benchmark reporting.
    """

    __slots__ = ("memo", "_child_best", "_chosen_sum")

    def __init__(self):
        self.memo: dict = {}
        self._child_best: dict = {}   # (child, parent color bit) -> min value
        self._chosen_sum: dict = {}   # (v, i) -> sum of child minima

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


def _child_key_candidates(tree: RootedTree, u: int, parent_bit: int):
    """Keys a chosen parent offers its child ``u``, in argmin scan order.

    The parent is at distance 1 with its own color; the child subtree picks
    any internal distance/color profile; a chosen child hides the parent.
    """
    eta = tree.eta(u)
    yield (u, eta, 0, INF, tree.color_bit[u], 0)
    for d in range(1, tree.height[u] + 1):
        m = tree.subtree_avail(u, d)
        for cp in _nonempty_submasks(m):
            yield (u, eta, d, 1, cp, parent_bit)
    yield (u, eta, INF, 1, 0, parent_bit)


def _child_best(tree: RootedTree, u: int, parent_bit: int, table: DPTable):
    cached = table._child_best.get((u, parent_bit))
    if cached is None:
        cached = INF
        for key in _child_key_candidates(tree, u, parent_bit):
            val = dp_entry(tree, key, table)
            if val < cached:
                cached = val
        table._child_best[(u, parent_bit)] = cached
    return cached


def _chosen_sum(tree: RootedTree, v: int, i: int, table: DPTable):
    """Sum over the first ``i`` children of their best value under chosen ``v``."""
    cached = table._chosen_sum.get((v, i))
    if cached is None:
        prev = 0 if i == 1 else _chosen_sum(tree, v, i - 1, table)
        best = _child_best(tree, tree.children[v][i - 1], tree.color_bit[v], table)
        cached = prev + best
        table._chosen_sum[(v, i)] = cached
    return cached


def _splits(tree: RootedTree, key: tuple):
    """Yield ``(da, ca, db, cb)`` splits of an unchosen-``v`` key, in the
    documented deterministic order."""
    v, i, din, _dext, cin, _cext = key
    if din == INF:
        yield (INF, 0, INF, 0)
        return
    child = tree.children[v][i - 1]
    avail_left = tree.avail(v, i - 1, din)
    avail_right = tree.subtree_avail(child, din - 1) if din >= 1 else 0
    # both sides attain din; distribute each color of cin left/right/both
    la = avail_left & cin
    ra = avail_right & cin
    if la | ra == cin:
        options = []
        feasible = True
        bit = 1
        rest = cin
        while rest:
            if rest & bit:
                opts = []
                if la & bit:
                    opts.append((bit, 0))
                if ra & bit:
                    opts.append((0, bit))
                if la & ra & bit:
                    opts.append((bit, bit))
                options.append(opts)
                rest ^= bit
            bit <<= 1
        picks = [0] * len(options)
        while True:
            ca = cb = 0
            for slot, choice in enumerate(picks):
                a, b = options[slot][choice]
                ca |= a
                cb |= b
            if ca and cb:
                yield (din, ca, din, cb)
            slot = len(picks) - 1
            while slot >= 0:
                if picks[slot] + 1 < len(options[slot]):
                    picks[slot] += 1
                    break
                picks[slot] = 0
                slot -= 1
            else:
                break
    # only the child side attains din; the left part is farther (or empty)
    if ra == cin:
        for da in range(din + 1, tree.depth_limit(v, i - 1) + 1):
            for ca in _nonempty_submasks(tree.avail(v, i - 1, da)):
                yield (da, ca, din, cin)
        yield (INF, 0, din, cin)
    # only the left part attains din; the child side is farther (or empty)
    if la == cin:
        for db in range(din + 1, tree.height[child] + 2):
            for cb in _nonempty_submasks(tree.subtree_avail(child, db - 1)):
                yield (din, cin, db, cb)
        yield (din, cin, INF, 0)


def _split_subkeys(tree: RootedTree, key: tuple, split: tuple):
    """Left/right canonical table keys induced by one split of ``key``."""
    v, i, _din, dext, _cin, cext = key
    da, ca, db, cb = split
    child = tree.children[v][i - 1]
    # the left part's outside: the child subtree or the old outside
    dx = db if db < dext else dext
    cx = (cb if db == dx else 0) | (cext if dext == dx else 0)
    left = (v, i - 1, da, dx, ca, cx) if dx <= da else (v, i - 1, da, INF, ca, 0)
    # everything except T(child) lies one hop beyond v from the child's view
    dy = da if da < dext else dext
    cy = (ca if da == dy else 0) | (cext if dext == dy else 0)
    eta = tree.eta(child)
    right = ((child, eta, db - 1, dy + 1, cb, cy) if dy <= db - 2
             else (child, eta, db - 1, INF, cb, 0))
    return left, right


def dp_entry(tree: RootedTree, key: tuple, table: DPTable):
    """Minimum chosen vertices inside the prefix for ``key`` (or ``INF``).

    Key invariants (see :func:`make_dp_key`) are assumed, not re-checked.
    """
    memo = table.memo
    val = memo.get(key)
    if val is None:
        val = _compute(tree, key, table)
        memo[key] = val
    return val


def _compute(tree: RootedTree, key: tuple, table: DPTable):
    v, i, din, dext, cin, cext = key
    vbit = tree.color_bit[v]
    cmin = (cin if din <= dext else 0) | (cext if dext <= din else 0)
    if not cmin & vbit:
        return INF
    if din == 0:
        if cin != vbit:
            return INF
        if i == 0:
            return 1
        return 1 + _chosen_sum(tree, v, i, table)
    # din must be realizable by colors cin at that exact depth (trivial for INF)
    if (tree.avail(v, i, din) & cin) != cin:
        return INF
    if i == 0:
        return 0 if din == INF else INF
    best = INF
    for split in _splits(tree, key):
        left_key, right_key = _split_subkeys(tree, key, split)
        left = dp_entry(tree, left_key, table)
        if left >= best:
            continue
        right = dp_entry(tree, right_key, table)
        total = left + right
        if total < best:
            best = total
    return best


def _collect(tree: RootedTree, key: tuple, table: DPTable, acc: set) -> None:
    """Re-walk the first argmin of a finite key, adding chosen vertices."""
    v, i, din, _dext, _cin, _cext = key
    target = table.memo[key]
    if din == 0:
        acc.add(v)
        for j in range(1, i + 1):
            child = tree.children[v][j - 1]
            want = _child_best(tree, child, tree.color_bit[v], table)
            for ck in _child_key_candidates(tree, child, tree.color_bit[v]):
                if dp_entry(tree, ck, table) == want:
                    _collect(tree, ck, table, acc)
                    break
            else:
                raise AssertionError("table lost a child argmin")
        return
    if i == 0:
        return  # din == INF: nothing chosen here
    for split in _splits(tree, key):
        left_key, right_key = _split_subkeys(tree, key, split)
        left = dp_entry(tree, left_key, table)
        if left == INF:
            continue
        right = dp_entry(tree, right_key, table)
        if left + right == target:
            _collect(tree, left_key, table, acc)
            _collect(tree, right_key, table, acc)
            return
    raise AssertionError("table lost a split argmin")


def reconstruct_witness(tree: RootedTree, key: tuple, table: DPTable) -> frozenset:
    """Chosen vertices of the first argmin realizing a solved finite key."""
    val = table.memo.get(key)
    if val is None:
        raise ValueError("key has not been solved in this table")
    if val == INF:
        raise ValueError("key is infeasible; no witness exists")
    acc: set = set()
    _collect(tree, key, table, acc)
    if len(acc) != val:
        raise AssertionError("reconstruction does not match the table value")
    return frozenset(acc)


def _root_keys(tree: RootedTree):
    """Top-level keys in scan order: distance ascending, masks descending.

    Keys whose color set misses the root's color are infeasible (the root
    must see its own color at the overall minimum distance) and skipped.
    """
    r = tree.root
    eta = tree.eta(r)
    rbit = tree.color_bit[r]
    for d in range(0, tree.depth_limit(r, eta) + 1):
        m = tree.avail(r, eta, d)
        if not m & rbit:
            continue
        for cp in _nonempty_submasks(m):
            if cp & rbit:
                yield (r, eta, d, INF, cp, 0)


def _solve(g: ColoredGraph, color_cap: int):
    if not g.is_tree:
        raise PreconditionError("graph must be a tree (connected, n-1 edges)")
    if g.c > color_cap:
        raise PreconditionError(
            f"{g.c} colors exceeds the solver's color cap {color_cap}")
    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(caller_limit, 4 * g.n + 2000))
    try:
        tree = root_tree(g, 1)
        table = DPTable()
        best = INF
        best_key = None
        for key in _root_keys(tree):
            val = dp_entry(tree, key, table)
            if val < best:
                best = val
                best_key = key
        if best == INF or best_key is None:
            raise AssertionError("unreachable: a tree always has a consistent subset")
        witness = reconstruct_witness(tree, best_key, table)
    finally:
        sys.setrecursionlimit(caller_limit)
    cert = Certificate("mcs", tuple(sorted(witness)), int(best), "tree-dp-optimal")
    return cert, tree, table


def solve_tree_mcs(g: ColoredGraph, color_cap: int = DEFAULT_COLOR_CAP) -> Certificate:
    """Optimal consistent subset of a colored tree via the prefix DP."""
    return _solve(g, color_cap)[0]


def solve_tree_mcs_detailed(g: ColoredGraph, color_cap: int = DEFAULT_COLOR_CAP):
    """Like :func:`solve_tree_mcs` but also returns the tree and table."""
    return _solve(g, color_cap)
