"""Reference implementations and tiny graph builders for the test suite.

The ``ref_*`` functions are deliberately written from scratch against plain
``(n, colors, edges)`` data — no shared code with the library — so they can
serve as independent oracles.  They enumerate without any pruning and check
consistency with their own BFS, trading speed for obviousness; keep inputs
small (n <= 10 or so).
"""

import itertools
import os
from collections import deque

import consistent_subset
from consistent_subset import ColoredGraph, SplitMix64

INF = float("inf")


# --------------------------------------------------------------------------
# independent reference oracles (no library code)

def ref_adjacency(n, edges):
    adj = {v: [] for v in range(1, n + 1)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


def ref_distances(adj, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def ref_is_consistent(n, colors, edges, subset, strict=False):
    """``colors`` maps vertex -> color; ``subset`` is any iterable."""
    adj = ref_adjacency(n, edges)
    chosen = set(subset)
    for v in range(1, n + 1):
        dist = ref_distances(adj, v)
        best = min(dist[u] for u in chosen if u in dist)
        nearest = [u for u in chosen if u in dist and dist[u] == best]
        same = [u for u in nearest if colors[u] == colors[v]]
        if strict:
            if len(same) != len(nearest):
                return False
        elif not same:
            return False
    return True


def ref_minimum_subset(n, colors, edges, strict=False):
    """Smallest (strict) consistent subset by plain enumeration.

    Tries every subset in increasing-cardinality, lexicographic order and
    returns the first that passes — the same documented order the library
    promises, so witnesses must match exactly.
    """
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            if ref_is_consistent(n, colors, edges, combo, strict):
                return combo
    raise AssertionError("no consistent subset found (disconnected input?)")


def ref_min_dominating(n, edges):
    adj = ref_adjacency(n, edges)
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            chosen = set(combo)
            if all(v in chosen or any(u in chosen for u in adj[v])
                   for v in range(1, n + 1)):
                return combo
    raise AssertionError("unreachable")


def ref_min_vertex_cover(n, edges):
    for k in range(0, n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            chosen = set(combo)
            if all(u in chosen or w in chosen for u, w in edges):
                return combo
    raise AssertionError("unreachable")


def ref_min_set_cover(n, sets):
    universe = set(range(1, n + 1))
    for k in range(0, len(sets) + 1):
        for combo in itertools.combinations(range(1, len(sets) + 1), k):
            covered = set()
            for j in combo:
                covered |= set(sets[j - 1])
            if covered >= universe:
                return combo
    raise AssertionError("the sets do not cover the universe")


# --------------------------------------------------------------------------
# rooted trees

def make_dp_key(v, i, din, dext, cin, cext):
    """Validate and build a canonical tree-DP key ``(v, i, din, dext, cin,
    cext)``: an ``INF`` distance goes with an empty color mask and a finite
    one with a nonempty mask, ``din >= 0``, ``dext >= 1``, ``i >= 0``;
    ``dext > din`` becomes ``(INF, 0)``, and at ``dext == din`` the outside
    keeps only its colors missing from ``cin``, or becomes ``(INF, 0)``
    when none is left."""
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
    if dext == din:
        cext &= ~cin
    if dext > din or not cext:
        return (v, i, din, INF, cin, 0)
    return (v, i, din, dext, cin, cext)


def prefix_vertices(tree, v, i):
    """Vertices of the child prefix ``T_i(v)`` of a rooted tree: ``v`` and
    the subtrees of its first ``i`` children (all of them gives ``T(v)``)."""
    out = [v]
    for u in out:
        out.extend(tree.children[u][:i] if u == v else tree.children[u])
    return frozenset(out)


# --------------------------------------------------------------------------
# reduction oracles

def predicted_interval_edges(instance):
    """Overlap edges of a vc-intervals instance implied by its gadget roles
    alone (no geometry): the large interval meets everything; mediums of
    one gadget meet each other and their gadget's smalls; nothing else
    touches."""
    edges = set()
    big = instance.large_id
    for iid in range(1, len(instance.intervals) + 1):
        if iid != big:
            edges.add((min(iid, big), max(iid, big)))
    by_vertex = {}
    for _, v, iid in instance.mediums:
        by_vertex.setdefault(v, []).append(iid)
    for v, meds in by_vertex.items():
        edges.update(itertools.combinations(sorted(meds), 2))
        for mid in meds:
            for sid in instance.gadget_smalls[v]:
                edges.add((min(mid, sid), max(mid, sid)))
    return frozenset(edges)


# --------------------------------------------------------------------------
# child interpreters

def child_env():
    """Environment in which a child interpreter imports the same
    `consistent_subset` package as this test process, not whatever its
    inherited `PYTHONPATH` or site-packages would pick."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(consistent_subset.__file__))
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root + os.pathsep + inherited if inherited
                         else package_root)
    return env


# --------------------------------------------------------------------------
# graph builders

def path_graph(colors):
    n = len(colors)
    return ColoredGraph(n, max(colors), [(i, i + 1) for i in range(1, n)],
                        {i: c for i, c in enumerate(colors, 1)})


def cycle_graph(colors):
    n = len(colors)
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return ColoredGraph(n, max(colors), edges,
                        {i: c for i, c in enumerate(colors, 1)})


def star_graph(center_color, leaf_colors):
    colors = [center_color] + list(leaf_colors)
    n = len(colors)
    return ColoredGraph(n, max(colors), [(1, i) for i in range(2, n + 1)],
                        {i: c for i, c in enumerate(colors, 1)})


def broom(handle_colors, bristle_colors):
    """A path ``1..h`` (the handle) with the bristles as leaves of ``h``."""
    colors = list(handle_colors) + list(bristle_colors)
    h = len(handle_colors)
    edges = [(v, v + 1) for v in range(1, h)] + [(h, v) for v in range(h + 1, len(colors) + 1)]
    return ColoredGraph(len(colors), max(colors), edges,
                        {i: c for i, c in enumerate(colors, 1)})


def complete_graph(n, color=1):
    return ColoredGraph(n, color, list(itertools.combinations(range(1, n + 1), 2)),
                        {v: color for v in range(1, n + 1)})


# seeded deep trees: colors come in runs of ``lo``..``hi`` along a spine or
# leg (each run a new color when c > 1), and vertex 1 (the tree solver's
# root) is a spine end or the centre

def _color_runs(rng, length, c, lo, hi):
    out = []
    while len(out) < length:
        color = (1 + (out[-1] + rng.below(c - 1)) % c if out and c > 1
                 else 1 + rng.below(c))
        out += [color] * (lo + rng.below(hi - lo + 1))
    return out[:length]


def runs_path(n, c, lo, hi, seed):
    return path_graph(_color_runs(SplitMix64(seed), n, c, lo, hi))


def caterpillar(spine, c, lo, hi, seed):
    """A runs-colored spine with 0-2 leaves per spine vertex."""
    rng = SplitMix64(seed)
    colors = _color_runs(rng, spine, c, lo, hi)
    edges = [(v, v + 1) for v in range(1, spine)]
    for v in range(1, spine + 1):
        for _ in range(rng.below(3)):
            colors.append(1 + rng.below(c))
            edges.append((v, len(colors)))
    return ColoredGraph(len(colors), c, edges, colors)


def comb(s, phase):
    """A spine ``1..s`` with the leaf ``s + i`` on spine vertex ``i``,
    colored 1 and 2 with period 3: spine vertex ``i`` is 2 when 3 divides
    ``i``, its leaf when 3 divides ``i + phase``.  At ``phase == s % 3``
    color 2 lies on exactly the ids divisible by 3.  Rooted at vertex 1,
    spine vertex ``i`` has the first child ``i + 1``, which branches for
    ``i < s - 1``."""
    edges = [(i, i + 1) for i in range(1, s)] + [(i, s + i) for i in range(1, s + 1)]
    colors = ([2 if i % 3 == 0 else 1 for i in range(1, s + 1)]
              + [2 if (i + phase) % 3 == 0 else 1 for i in range(1, s + 1)])
    return ColoredGraph(2 * s, 2, edges, colors)


def spider(legs, c, lo, hi, seed):
    """``legs`` paths of ``lo``..``hi`` vertices off vertex 1, colored in
    runs of 1-5."""
    rng = SplitMix64(seed)
    colors, edges = [1 + rng.below(c)], []
    for _ in range(legs):
        first = len(colors) + 1
        colors += _color_runs(rng, lo + rng.below(hi - lo + 1), c, 1, 5)
        edges += [(1, first)] + [(v, v + 1) for v in range(first, len(colors))]
    return ColoredGraph(len(colors), c, edges, colors)


RRBB_TEXT = "p ccg 4 3 2\nv 1 1\nv 2 1\nv 3 2\nv 4 2\ne 1 2\ne 2 3\ne 3 4\n"
RRBB = path_graph([1, 1, 2, 2])
