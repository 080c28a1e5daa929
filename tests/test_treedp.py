import itertools
import sys
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from consistent_subset import (ColoredGraph, PreconditionError,
                               brute_force_mcs, is_consistent, random_tree,
                               solve_tree_mcs)
from consistent_subset import treedp
from consistent_subset.treedp import (INF, DPTable, dp_entry,
                                      reconstruct_witness, root_tree,
                                      solve_tree_mcs_detailed, _admissible,
                                      _run_landing, _run_side_keys,
                                      _side_keys)

from helpers import (RRBB, broom, caterpillar, make_dp_key, path_graph,
                     prefix_vertices, ref_adjacency, ref_distances,
                     ref_is_consistent, ref_minimum_subset, runs_path, spider,
                     star_graph)

RED, BLUE = 1, 2
RBIT, BBIT = 1, 2

# a spider with centre 3, rooted at the end of one leg: 1 - 2 - 3, then legs
# 3 - 4 - 6 and 3 - 5 - 7
SPIDER_EDGES = [(1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 7)]
# the run 1 - 2 ends at the centre; under a chosen 1, the key of 2 with
# inside 3 and outside 1 hops onto 3 exactly where inside and outside tie,
# and the blue 3 sees red alone
LEG_ROOTED_SPIDER = ColoredGraph(7, 2, SPIDER_EDGES, [RED, RED, BLUE] + [RED] * 4)

# where a monochrome stretch of a run (its vertices from one down, while
# they keep its color) ends or starts, for the scan by color segment
GREEN = 3
STRETCH_TREES = [
    # ends at a color change inside the run, and a later red segment
    path_graph([RED, RED, RED, BLUE, BLUE, RED]),
    # ends at the run's red branching bottom vertex
    broom([RED] * 4, [BLUE, RED]),
    # ends at a red leaf: the red subtree leaves the empty key alone
    path_graph([BLUE, BLUE] + [RED] * 4),
    # starts below the chosen red centre of a spider, on its red leg
    ColoredGraph(7, 2, [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (1, 7)],
                 [RED, RED, RED, BLUE, BLUE, RED, BLUE]),
    # scanned under two colors: a blue inside tied with a red outside, and
    # green below the stretch
    ColoredGraph(6, 3, [(1, 2), (2, 3), (1, 4), (4, 5), (5, 6)],
                 [RED, BLUE, RED, RED, RED, GREEN]),
    # the red leg 1 - 2 - 3 fixes inside distance 2, which starts the scan
    # of the leg 4 - 5 - 6 - 7 inside its blue segment 5 - 6
    ColoredGraph(7, 3, [(1, 2), (2, 3), (1, 4), (4, 5), (5, 6), (6, 7)],
                 [RED, RED, RED, RED, BLUE, BLUE, GREEN]),
]


# --------------------------------------------------------------------------
# rooting

def test_root_path_at_one():
    t = root_tree(RRBB, 1)
    assert t.children[1] == (2,)
    assert t.children[2] == (3,)
    assert t.children[3] == (4,)
    assert t.children[4] == ()
    assert t.parent[4] == 3 and t.parent[1] == 0
    assert t.depth_limit(1, t.eta(1)) == 3 and t.depth_limit(4, t.eta(4)) == 0


def test_root_star():
    star = star_graph(RED, [BLUE, BLUE, BLUE])
    t = root_tree(star, 1)
    assert t.eta(1) == 3
    assert all(t.depth_limit(leaf, t.eta(leaf)) == 0 for leaf in (2, 3, 4))


def test_root_path_at_two():
    t = root_tree(RRBB, 2)
    assert t.children[2] == (1, 3)
    assert t.children[3] == (4,)


def test_root_rejects_non_tree():
    cyc = ColoredGraph(3, 1, [(1, 2), (2, 3), (1, 3)], {v: 1 for v in (1, 2, 3)})
    with pytest.raises(PreconditionError):
        root_tree(cyc, 1)
    with pytest.raises(PreconditionError):
        root_tree(RRBB, 9)


@pytest.mark.parametrize("root", [0, 5, 1.5, 2.0, True])
def test_root_rejects_a_root_that_is_not_a_vertex(root):
    # a float is no list index, and True would be taken as vertex 1
    with pytest.raises(PreconditionError, match=f"^root {root} not in graph$"):
        root_tree(RRBB, root)


def test_prefix_and_subtree_vertices():
    t = root_tree(RRBB, 2)
    assert prefix_vertices(t, 3, t.eta(3)) == frozenset({3, 4})
    assert prefix_vertices(t, 2, 0) == frozenset({2})
    assert prefix_vertices(t, 2, 1) == frozenset({1, 2})
    assert prefix_vertices(t, 2, 2) == frozenset({1, 2, 3, 4})


def test_exact_depth_color_masks():
    t = root_tree(RRBB, 1)
    # from vertex 1 the whole-prefix colors by distance are r, r, b, b
    assert [t.avail(1, 1, d) for d in range(4)] == [RBIT, RBIT, BBIT, BBIT]
    assert t.avail(1, 1, 9) == 0
    assert t.avail(3, t.eta(3), 1) == BBIT
    # negative depths and radii hold nothing (they must not index from the
    # far end)
    assert t.avail(1, 1, -1) == 0
    assert t.avail(3, t.eta(3), -1) == 0
    assert t.avail(1, t.eta(1), -1) == 0
    assert [t.near(1, 1, r) for r in (-1, 0, 1, 3, INF)] == [0, 0, RBIT, RBIT | BBIT,
                                                             RBIT | BBIT]
    assert t.near(3, 1, -1) == 0


# --------------------------------------------------------------------------
# the tests' key builder (helpers.make_dp_key) and single entries

def test_make_dp_key_validation():
    make_dp_key(2, 0, 0, 1, RBIT, RBIT)
    with pytest.raises(ValueError):
        make_dp_key(2, 0, INF, 1, RBIT, RBIT)   # INF with colors
    with pytest.raises(ValueError):
        make_dp_key(2, 0, 1, 1, 0, RBIT)        # finite, no colors
    with pytest.raises(ValueError):
        make_dp_key(2, 0, 0, 0, RBIT, RBIT)     # dext below 1
    with pytest.raises(ValueError):
        make_dp_key(2, 0, 1, INF, RBIT, RBIT)   # INF outside with colors
    with pytest.raises(ValueError):
        make_dp_key(2, 0, -1, 1, RBIT, RBIT)
    with pytest.raises(ValueError):
        make_dp_key(2, -1, 0, 1, RBIT, RBIT)


def test_make_dp_key_drops_an_outside_beyond_the_inside():
    # no prefix vertex can have a nearest chosen vertex outside when the
    # outside is farther from v than the inside, so only (INF, 0) is kept
    assert make_dp_key(2, 1, 1, 2, RBIT, BBIT) == (2, 1, 1, INF, RBIT, 0)
    assert make_dp_key(2, 0, 0, 1, RBIT, BBIT) == (2, 0, 0, INF, RBIT, 0)
    assert make_dp_key(2, 1, 2, 2, RBIT, BBIT) == (2, 1, 2, 2, RBIT, BBIT)
    assert make_dp_key(2, 1, 3, 1, RBIT, BBIT) == (2, 1, 3, 1, RBIT, BBIT)
    assert make_dp_key(2, 0, INF, 4, 0, BBIT) == (2, 0, INF, 4, 0, BBIT)


def test_leaf_entries():
    # blue root with one red leaf; evaluate the leaf's base cases
    g = path_graph([BLUE, RED])
    t = root_tree(g, 1)
    table = DPTable()
    chosen = make_dp_key(2, 0, 0, 1, RBIT, RBIT)
    assert dp_entry(t, chosen, table) == 1
    covered = make_dp_key(2, 0, INF, 1, 0, RBIT)
    assert dp_entry(t, covered, table) == 0
    mismatched = make_dp_key(2, 0, INF, 1, 0, BBIT)
    assert dp_entry(t, mismatched, table) == INF
    # choosing the leaf under a contradictory color claim is infeasible
    wrong_self = make_dp_key(2, 0, 0, 1, BBIT, BBIT)
    assert dp_entry(t, wrong_self, table) == INF


def test_entries_memoized():
    g = path_graph([RED, RED, BLUE, BLUE])
    t = root_tree(g, 1)
    table = DPTable()
    key = make_dp_key(1, 1, 2, INF, BBIT, 0)
    first = dp_entry(t, key, table)
    assert table.memo[key] == first
    assert dp_entry(t, key, table) == first


# --------------------------------------------------------------------------
# full solves

def test_solve_goldens():
    one = ColoredGraph(1, 1, [], {1: 1})
    cert = solve_tree_mcs(one)
    assert cert.size == 1 and cert.witness == (1,)
    assert solve_tree_mcs(RRBB).size == 2
    assert solve_tree_mcs(star_graph(RED, [BLUE] * 3)).size == 4
    assert cert.provenance == "tree-dp-optimal"


def test_solve_rejects_non_trees_and_wide_colorings():
    cyc = ColoredGraph(3, 1, [(1, 2), (2, 3), (1, 3)], {v: 1 for v in (1, 2, 3)})
    with pytest.raises(PreconditionError):
        solve_tree_mcs(cyc)
    disc = ColoredGraph(2, 1, [], {1: 1, 2: 1})
    with pytest.raises(PreconditionError):
        solve_tree_mcs(disc)
    wide = star_graph(1, list(range(2, 19)))    # 18 colors
    with pytest.raises(PreconditionError):
        solve_tree_mcs(wide)
    assert solve_tree_mcs(wide, color_cap=18).size == 18


def test_matches_brute_force_on_random_trees():
    for seed in range(120):
        n = 1 + seed % 12
        g = random_tree(n, 1 + seed % 3, seed)
        fast = solve_tree_mcs(g)
        slow = brute_force_mcs(g, cap=n)
        assert fast.size == slow.size, f"seed {seed}"
        assert is_consistent(g, fast.witness)
        assert len(fast.witness) == fast.size


@st.composite
def deep_trees(draw, max_n=14):
    """Paths, caterpillars, spiders, stars and brooms with colors in runs
    along the spine, legs or handle.  Vertex 1 (the solver's root) is a
    spine end, the spider's or star's centre, or the broom's handle end, so
    the DP's distance ranges span the whole height."""
    c = draw(st.integers(min_value=1, max_value=3))

    def runs(length):
        out = []
        while len(out) < length:
            out += [draw(st.integers(1, c))] * draw(st.integers(1, 5))
        return out[:length]

    kind = draw(st.sampled_from(("path", "caterpillar", "spider", "star", "broom")))
    if kind == "spider":
        colors, edges = [draw(st.integers(1, c))], []
        for _ in range(draw(st.integers(1, 4))):
            if len(colors) == max_n:
                break
            first = len(colors) + 1
            colors += runs(draw(st.integers(1, max_n - len(colors))))
            edges += [(1, first)] + [(v, v + 1) for v in range(first, len(colors))]
    elif kind == "star":
        colors = runs(draw(st.integers(1, max_n)))
        edges = [(1, v) for v in range(2, len(colors) + 1)]
    else:
        spine = draw(st.integers(1, max_n if kind != "caterpillar" else max_n // 2))
        colors = runs(spine)
        edges = [(v, v + 1) for v in range(1, spine)]
        if kind == "caterpillar":
            for v in range(1, spine + 1):
                for _ in range(draw(st.integers(0, 2))):
                    if len(colors) < max_n:
                        colors.append(draw(st.integers(1, c)))
                        edges.append((v, len(colors)))
        elif kind == "broom":
            # bristles fan out of the handle's far end
            for _ in range(draw(st.integers(0, max_n - spine))):
                colors.append(draw(st.integers(1, c)))
                edges.append((spine, len(colors)))
    return ColoredGraph(len(colors), c, edges, colors)


@given(deep_trees())
@example(path_graph([RED] * 12))
@example(star_graph(BLUE, [BLUE] * 8))
@example(LEG_ROOTED_SPIDER)
def test_matches_reference_on_deep_trees(g):
    colors = {v: g.color[v] for v in range(1, g.n + 1)}
    cert, tree, table = solve_tree_mcs_detailed(g)
    assert cert.size == len(ref_minimum_subset(g.n, colors, g.edges))
    assert len(cert.witness) == cert.size
    assert ref_is_consistent(g.n, colors, g.edges, cert.witness)
    # every key the solve built is valid and canonical, and passes the color
    # tests that the solver runs only where it generates keys
    assert all(make_dp_key(*key) == key for key in table.memo)
    assert all(_admissible(tree, *key) for key in table.memo)


def test_solve_restores_recursion_limit():
    # rooted at an end, a 1,000-vertex path recurses far deeper than a
    # 1,000-frame limit allows, so the solve must raise the limit and then
    # hand the caller's limit back
    g = path_graph([RED, BLUE] * 500)
    caller = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cert = solve_tree_mcs(g)
        after = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(caller)
    assert cert.size == 1000
    assert after == 1000


def test_solve_deterministic():
    g = random_tree(14, 3, 99)
    assert solve_tree_mcs(g) == solve_tree_mcs(g)


# sizes and first-argmin witnesses of seeded deep trees; a change to the
# split order, the scan order or a prune that removes a finite key moves them
WITNESS_GOLDENS = [
    (runs_path, (40, 2, 4, 10, 1), (1, 7, 9, 19, 23, 35, 36)),
    (runs_path, (60, 3, 3, 12, 2), (2, 16, 22, 38, 39, 47, 55)),
    (runs_path, (30, 2, 1, 3, 3),
     (1, 2, 6, 7, 9, 10, 11, 13, 14, 16, 18, 19, 21, 25, 28, 30)),
    (path_graph, ([RED, BLUE] * 20,), tuple(range(1, 41))),
    (path_graph, ([1, 2, 3] * 15,), tuple(range(1, 46))),
    (caterpillar, (18, 2, 2, 6, 4), (19, 20)),
    (caterpillar, (20, 3, 3, 8, 5), (6, 10, 14, 18, 22, 24, 26, 29, 31, 37, 38)),
    (spider, (4, 2, 5, 12, 6), (16, 17, 20, 22, 23, 27, 28)),
    (spider, (3, 3, 8, 15, 7),
     (2, 4, 6, 8, 10, 11, 13, 28, 29, 32, 34, 35, 37, 41, 42)),
    (random_tree, (60, 2, 7), (2, 11, 33)),
    (random_tree, (50, 3, 9), (4, 5, 31, 42, 46)),
    (random_tree, (40, 4, 10),
     (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 18, 20, 22, 25, 26, 27, 28,
      31, 33, 34, 35, 36, 38, 39, 40)),
]


@pytest.mark.parametrize("build,args,witness", WITNESS_GOLDENS,
                         ids=[f"{b.__name__}{i}" for i, (b, _, _) in enumerate(WITNESS_GOLDENS)])
def test_witness_goldens(build, args, witness):
    g = build(*args)
    assert g.n <= 60
    cert = solve_tree_mcs(g)
    assert (cert.size, cert.witness) == (len(witness), witness)


@pytest.mark.parametrize("g", [path_graph([BLUE] * 1000), random_tree(1000, 1, 3)],
                         ids=["path", "prufer"])
def test_one_color_tree_stops_at_the_root(g):
    # one vertex is optimal; the root key choosing vertex 1 reaches that
    # floor and every child subtree shares its color, so almost no keys
    cert, _tree, table = solve_tree_mcs_detailed(g)
    assert cert.witness == (1,)
    assert table.size <= g.n


def test_memo_work_guard():
    # memo keys, not time: before the color pruning the solver built about
    # n^2/2 keys on the alternating path; before the far-side bound it built
    # 12,769 keys on the runs-path and 1,835 on the caterpillar, and before
    # one-child runs resolved in one hop 5,579, 1,284 and 339,367 (the long
    # runs-path), and before right keys landed ahead of the memo 911, 1,102
    # and 16,441.  Each bound leaves about 10% over today's count.  On the
    # path 1...1 2 a chosen vertex scanned one child key per inside distance,
    # and storing those before they landed built n(n+1)/2 = 500,500 keys.
    g = path_graph([RED, BLUE] * 200)
    assert solve_tree_mcs_detailed(g)[2].size <= 8 * g.n
    for g, most in ((runs_path(80, 2, 15, 30, 11), 215),
                    (caterpillar(35, 3, 8, 15, 8), 1_030),
                    (runs_path(400, 2, 100, 100, 1), 1_100),
                    (path_graph([RED] * 999 + [BLUE]), 3_300),
                    (random_tree(40, 2, 10), None)):
        _cert, tree, table = solve_tree_mcs_detailed(g)
        assert most is None or table.size <= most
        # the solver never stores a key that its color tests reject
        assert all(_admissible(tree, *key) for key in table.memo)


def test_monochrome_stretch_work_guard(monkeypatch):
    # split pairs and color-test calls, not time: on the path 1...1 2 a
    # chosen vertex scanned one child key per inside distance (498,503
    # pairs, 501,496 _need calls), and on two 1,000-vertex runs each scan
    # ran _need down the second run (503,497 pairs, 1,001,999 calls).  By
    # color segment they are 1,000 and 2,995, and 4,996 and 3,998.  Each
    # bound leaves about 10% over that; keys and witnesses did not change.
    counts = Counter()
    subkey_pairs, need = treedp._subkey_pairs, treedp._need

    def counted_pairs(tree, key):
        for pair in subkey_pairs(tree, key):
            counts["pairs"] += 1
            yield pair

    def counted_need(*args):
        counts["need"] += 1
        return need(*args)

    monkeypatch.setattr(treedp, "_subkey_pairs", counted_pairs)
    monkeypatch.setattr(treedp, "_need", counted_need)
    for g, pairs, needs, keys, witness in (
            (path_graph([RED] * 999 + [BLUE]), 1_100, 3_300, 2_996, (998, 1000)),
            (runs_path(2000, 2, 1000, 1000, 1), 5_500, 4_400, 4_998, (1, 1999))):
        counts.clear()
        cert, _tree, table = solve_tree_mcs_detailed(g)
        assert cert.witness == witness
        assert table.size == keys
        assert counts["pairs"] <= pairs and counts["need"] <= needs, counts


def test_answer_is_min_over_root_keys():
    for seed in (3, 17, 40):
        g = random_tree(9, 3, seed)
        cert, tree, table = solve_tree_mcs_detailed(g)
        r = tree.root
        values = [dp_entry(tree, key, table)
                  for key in _side_keys(tree, r, tree.eta(r), 0, INF, 0)]
        assert min(v for v in values if v != INF) == cert.size


# --------------------------------------------------------------------------
# the splice property: any solved subproblem's witness can replace the
# matching slice of any consistent set without breaking consistency

def _induced_key(tree, g, members, v, i):
    dists = ref_distances(ref_adjacency(g.n, g.edges), v)

    def profile(group):
        found = [dists[u] for u in group if u in members]
        if not found:
            return INF, 0
        best = min(found)
        mask = 0
        for u in group:
            if u in members and dists[u] == best:
                mask |= tree.color_bit[u]
        return best, mask

    prefix = prefix_vertices(tree, v, i)
    din, cin = profile(prefix)
    dext, cext = profile(set(range(1, g.n + 1)) - prefix)
    return make_dp_key(v, i, din, dext, cin, cext)


def _check_splice(g):
    """Every prefix key induced by a consistent set is worth at most the set's
    inside count (a wrongly rejected key would read INF), and its witness
    splices back into the set."""
    n = g.n
    tree = root_tree(g, 1)
    table = DPTable()
    sources = [frozenset(range(1, n + 1)),
               frozenset(brute_force_mcs(g, cap=n).witness)]
    for members in sources:
        for v in range(1, n + 1):
            for i in range(tree.eta(v) + 1):
                key = _induced_key(tree, g, members, v, i)
                value = dp_entry(tree, key, table)
                prefix = prefix_vertices(tree, v, i)
                inside = members & prefix
                assert value <= len(inside)
                if value == INF:
                    continue
                if value == 0:
                    spliced = members - prefix
                    if not spliced:
                        continue
                else:
                    replacement = reconstruct_witness(tree, key, table)
                    spliced = (members - prefix) | replacement
                assert is_consistent(g, spliced), (v, i, members)


def test_splice_property():
    for seed in range(12):
        n = 2 + seed % 8
        _check_splice(random_tree(n, 1 + seed % 3, 700 + seed))


@given(deep_trees(max_n=11))
def test_splice_property_on_deep_trees(g):
    _check_splice(g)


# --------------------------------------------------------------------------
# the color tests that reject keys before they are built

def _enumerated_values(g, tree, v, i):
    """``(din, cin, dext) -> [(required outside mask, size)]`` over every
    subset of the prefix ``T_i(v)``, by plain enumeration with the reference
    BFS, and the prefix depth.

    A subset with an outside of ``dext``/``cext`` is feasible when every
    prefix vertex sees its color among its nearest chosen vertices; for
    fixed ``dext`` that holds exactly for the ``cext`` containing one
    required mask, or for none.
    """
    adj = ref_adjacency(g.n, g.edges)
    prefix = sorted(prefix_vertices(tree, v, i))
    dist = {u: ref_distances(adj, u) for u in prefix}
    depth = max(dist[v][u] for u in prefix)
    out = {}
    for k in range(len(prefix) + 1):
        for chosen in itertools.combinations(prefix, k):
            din = min((dist[v][s] for s in chosen), default=INF)
            cin = 0
            for s in chosen:
                if dist[v][s] == din:
                    cin |= tree.color_bit[s]
            for dext in list(range(1, depth + 3)) + [INF]:
                need = 0
                for u in prefix:
                    near = min((dist[u][s] for s in chosen), default=INF)
                    seen = 0
                    for s in chosen:
                        if dist[u][s] == near:
                            seen |= tree.color_bit[s]
                    far = dist[u][v] + dext
                    bit = tree.color_bit[u]
                    if near == far == INF or (near < far and not seen & bit):
                        break
                    if far < near or (far == near and not seen & bit):
                        need |= bit
                else:
                    out.setdefault((din, cin, dext), []).append((need, k))
    return out, depth


ENUMERATION_TREES = ([random_tree(2 + s % 9, 2 + s % 2, 900 + s) for s in range(24)]
                     # trees whose key values hinge on the split's tie and
                     # outside-color cases
                     + [random_tree(10, 2, seed) for seed in (43, 280, 435)]
                     + [runs_path(8, 2, 1, 4, 1), runs_path(8, 3, 2, 3, 2),
                        spider(3, 2, 1, 2, 3), caterpillar(4, 2, 2, 3, 4),
                        path_graph([RED, BLUE] * 4)]
                     # handle runs that land on a branching vertex
                     + [broom([RED, RED, BLUE, BLUE, RED, RED], [BLUE, RED, BLUE]),
                        broom([RED, BLUE, BLUE, RED, RED, BLUE], [RED, BLUE, RED, BLUE]),
                        broom([1, 1, 2, 2, 3, 3, 1], [2, 3]), LEG_ROOTED_SPIDER]
                     + STRETCH_TREES)


@pytest.mark.parametrize("g", ENUMERATION_TREES)
def test_keys_match_enumeration(g):
    # every canonical key is worth what enumerating its prefix's subsets
    # gives, so the color tests reject only INF keys; the near-outside bound
    # (dext < din) does reject some, and so does the far-side bound among
    # keys that pass every other test
    tree = root_tree(g, 1)
    table = DPTable()
    masks = range(1, 1 << g.c)
    rejected = far_only = 0
    for v in range(1, g.n + 1):
        for i in range(tree.eta(v) + 1):
            values, depth = _enumerated_values(g, tree, v, i)
            for din in list(range(depth + 1)) + [INF]:
                for cin in ([0] if din == INF else masks):
                    for dext in list(range(1, depth + 3)) + [INF]:
                        if din < dext != INF:
                            continue
                        for cext in ([0] if dext == INF else masks):
                            want = min((k for need, k in values.get((din, cin, dext), ())
                                        if not need & ~cext), default=INF)
                            key = make_dp_key(v, i, din, dext, cin, cext)
                            assert dp_entry(tree, key, table) == want, key
                            if not _admissible(tree, *key):
                                assert want == INF, key
                                rejected += dext < din
                            if _far_rejects(tree, *key):
                                assert want == INF, key
                                far_only += _passes_other_tests(tree, *key)
    assert rejected > 0
    # (the shallower trees here have no key that the far bound alone decides)
    assert far_only > 0 or tree.depth_limit(1, tree.eta(1)) < 3


@pytest.mark.parametrize("g", [g for g in ENUMERATION_TREES if g.n <= 10])
def test_side_keys_match_a_filter(g):
    # the one key scan yields, from every start distance and under every
    # outside, the prefix's canonical keys in scan order (distance
    # ascending, masks descending) that pass the color tests, or the empty
    # key alone when it passes them
    tree = root_tree(g, 1)
    adj = ref_adjacency(g.n, g.edges)
    masks = range((1 << g.c) - 1, 0, -1)
    for v in range(1, g.n + 1):
        dist = ref_distances(adj, v)
        for i in range(tree.eta(v) + 1):
            prefix = prefix_vertices(tree, v, i)
            depth = max(dist[u] for u in prefix)
            present = [0] * (depth + 1)
            for u in prefix:
                present[dist[u]] |= tree.color_bit[u]
            for dext in list(range(1, depth + 3)) + [INF]:
                for cext in ([0] if dext == INF else masks):
                    empty = make_dp_key(v, i, INF, dext, 0, cext)
                    keys = [make_dp_key(v, i, d, dext, mask, cext)
                            for d in range(depth + 1) for mask in masks
                            if not mask & ~present[d]]
                    for d0 in range(depth + 2):
                        want = ([empty] if _admissible(tree, *empty) else
                                [key for key in keys
                                 if key[2] >= d0 and _admissible(tree, *key)])
                        got = list(_side_keys(tree, v, i, d0, dext, cext))
                        assert got == want, (v, i, d0, dext, cext)


def _far_rejects(tree, v, i, din, dext, cin, cext):
    """The far-side bound: some vertex on the path from ``v`` to the LCA of
    the prefix's level ``din``, nearer to that level than to the outside,
    has a color outside ``cin``."""
    if din == INF:
        return False
    k = (din - dext) // 2 + 1 if dext < din else 1
    return bool(tree.far(v, i, din, k) & ~cin)


def _passes_other_tests(tree, v, i, din, dext, cin, cext):
    """The exact-depth test, the near-outside bound and ``v``'s own test."""
    if tree.avail(v, i, din) & cin != cin:
        return False
    if dext < din:
        return not tree.near(v, i, (din - dext + 1) // 2) & ~cext
    return bool((cin | (cext if dext == din else 0)) & tree.color_bit[v])


def _lca_row(tree, v, i):
    """LCA of the vertices of ``T_i(v)`` at each distance from ``v``."""
    top = tree.depth_limit(v, i)
    return [tree._lca[v][i][top - d] for d in range(top + 1)]   # deepest first


def _naive_lca_row(tree, v, i):
    prefix = prefix_vertices(tree, v, i)
    row = []
    level = {v}
    while level:
        meet = level
        while len(meet) > 1:
            meet = {tree.parent[u] for u in meet}
        row.append(min(meet))
        level = {w for u in level for w in tree.children[u] if w in prefix}
    return row


def _naive_run(tree, v):
    """``v``'s run by a child-by-child walk: up while the parent has one
    child, then down to the first vertex without exactly one."""
    top = v
    while tree.parent[top] and len(tree.children[tree.parent[top]]) == 1:
        top = tree.parent[top]
    path = [top]
    while len(tree.children[path[-1]]) == 1:
        path.append(tree.children[path[-1]][0])
    return tuple(path), path.index(v)


@pytest.mark.parametrize("g", [runs_path(12, 2, 1, 3, 5), caterpillar(6, 2, 1, 2, 5),
                               spider(3, 3, 2, 4, 6), random_tree(40, 3, 4),
                               broom([RED] * 5, [BLUE] * 3), path_graph([RED])])
def test_run_index_matches_a_naive_walk(g):
    # rooted at vertex 1 and, for a second rooting with its own runs, at the
    # middle id
    for root in (1, (g.n + 1) // 2):
        tree = root_tree(g, root)
        for v in range(1, g.n + 1):
            if len(tree.children[v]) == 1:
                assert tree.run[v] == _naive_run(tree, v), (root, v)
            else:
                assert tree.run[v] is None, (root, v)



@pytest.mark.parametrize("g", [runs_path(12, 2, 1, 3, 5), caterpillar(6, 2, 1, 2, 5),
                               spider(3, 3, 2, 4, 6), random_tree(40, 3, 4)])
def test_lca_rows_match_a_naive_climb(g):
    tree = root_tree(g, 1)
    for v in range(1, g.n + 1):
        for i in range(tree.eta(v) + 1):
            assert _lca_row(tree, v, i) == _naive_lca_row(tree, v, i), (v, i)


ROW_TREES = [runs_path(12, 2, 1, 3, 5), caterpillar(6, 2, 1, 2, 5),
             spider(3, 3, 2, 4, 6), random_tree(40, 3, 4)]


@pytest.mark.parametrize("g", ROW_TREES)
def test_color_rows_match_a_naive_walk(g):
    # rooted at vertex 1 and at the middle id; every prefix's depth, colors
    # per exact distance and running unions match hop distances from v.
    # Rows are shared along first children, so inside a one-child run a
    # prefix's row runs past its depth, and nothing past it may be read
    adj = ref_adjacency(g.n, g.edges)
    for root in (1, (g.n + 1) // 2):
        tree = root_tree(g, root)
        longer = 0
        for v in range(1, g.n + 1):
            dist = ref_distances(adj, v)
            for i in range(tree.eta(v) + 1):
                prefix = prefix_vertices(tree, v, i)
                top = max(dist[u] for u in prefix)
                levels = [0] * (top + 1)
                for u in prefix:
                    levels[dist[u]] |= tree.color_bit[u]
                assert tree.depth_limit(v, i) == top, (root, v, i)
                assert ([tree.avail(v, i, d) for d in range(-1, top + 2)]
                        == [0] + levels + [0]), (root, v, i)
                below = [0]
                for mask in levels:
                    below.append(below[-1] | mask)
                assert ([tree.near(v, i, r) for r in range(-1, top + 3)]
                        == [0] + below + [below[-1]]), (root, v, i)
                assert tree.near(v, i, INF) == below[-1], (root, v, i)
                assert tree.far(v, i, top + 1, 1) == 0, (root, v, i)
                longer += len(tree._pref[v][i]) > top + 1
        assert longer > 0


def test_prefix_row_entries_stay_linear_on_a_path():
    # rows are shared along one-child runs: a 2,000-vertex path rooted at an
    # end stores O(n) row entries (one colour row per prefix would be
    # about 2M)
    tree = root_tree(path_graph([RED, BLUE] * 1000), 1)
    rows = {id(row): len(row) for table in (tree._pref, tree._lca, tree._near)
            for per_vertex in table[1:] for row in per_vertex}
    assert sum(rows.values()) <= 20_000


def test_far_side_bound_on_a_branching_level():
    # on the spider of SPIDER_EDGES both legs reach levels 3 and 4 of T(1),
    # so their LCA is 3, above those levels and not on a path
    g = ColoredGraph(7, 2, SPIDER_EDGES, [RED, BLUE, BLUE, RED, RED, RED, RED])
    tree = root_tree(g, 1)
    assert _lca_row(tree, 1, 1) == [1, 2, 3, 3, 3]
    assert _lca_row(tree, 3, 1) == [3, 4, 6]
    assert _lca_row(tree, 3, 2) == [3, 3, 3]
    assert _lca_row(tree, 2, 1) == [2, 3, 3, 3]
    # choosing only at depth 4 (6 and 7) leaves the blue 2 and 3 seeing red
    # alone: the far bound rejects the key, which every other test passes
    assert tree.far(1, 1, 4, 1) == BBIT
    assert tree.far(1, 1, 4, 3) == 0    # 3 lies at depth 2
    for key in [(1, 1, 4, INF, RBIT, 0),
                # an outside at 2 ties with 2, so only 3 must see red alone
                (1, 1, 4, 2, RBIT, RBIT | BBIT)]:
        assert _passes_other_tests(tree, *key)
        assert not _admissible(tree, *key)
        assert dp_entry(tree, key, DPTable()) == INF
    # with 3 red, the tie at 2 lets that key through; choosing 6 alone works
    tree = root_tree(ColoredGraph(7, 2, SPIDER_EDGES, [RED, BLUE] + [RED] * 5), 1)
    key = (1, 1, 4, 2, RBIT, RBIT | BBIT)
    assert _admissible(tree, *key)
    assert dp_entry(tree, key, DPTable()) == 1
    for colors in itertools.product((RED, BLUE), repeat=7):
        cert = solve_tree_mcs(ColoredGraph(7, 2, SPIDER_EDGES, list(colors)))
        by_vertex = dict(enumerate(colors, 1))
        assert cert.size == len(ref_minimum_subset(7, by_vertex, SPIDER_EDGES)), colors
        assert ref_is_consistent(7, by_vertex, SPIDER_EDGES, cert.witness)


# --------------------------------------------------------------------------
# table size and reconstruction guards

def test_memo_envelope():
    for seed in (5, 23, 61):
        g = random_tree(10, 3, seed)
        cert, tree, table = solve_tree_mcs_detailed(g)
        n, c = g.n, g.c
        eta_sum = sum(tree.eta(v) for v in range(1, n + 1))
        assert table.size <= max(1, eta_sum) * (n + 1) ** 3 * 2 ** (3 * c)
        for count in table.sizes_by_prefix().values():
            assert count <= (n + 1) ** 2 * 2 ** (2 * c)


def test_reconstruct_guards():
    g = path_graph([RED, RED])
    cert, tree, table = solve_tree_mcs_detailed(g)
    with pytest.raises(ValueError):
        reconstruct_witness(tree, make_dp_key(1, 0, 0, INF, RBIT, 0),
                            DPTable())
    infeasible = make_dp_key(2, 0, INF, 1, 0, BBIT)
    table2 = DPTable()
    assert dp_entry(tree, infeasible, table2) == INF
    with pytest.raises(ValueError):
        reconstruct_witness(tree, infeasible, table2)


def test_reconstruction_builds_no_key_and_does_not_recurse():
    # on a 1,000-vertex alternating path every vertex is chosen, so the
    # witness walk follows about 1,000 recorded splits down the path
    g = path_graph([RED, BLUE] * 500)
    cert, tree, table = solve_tree_mcs_detailed(g)
    r = tree.root
    key = next(key for key in _side_keys(tree, r, tree.eta(r), 0, INF, 0)
               if table.memo.get(key) == cert.size)
    size = table.size
    caller = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        witness = reconstruct_witness(tree, key, table)
    finally:
        sys.setrecursionlimit(caller)
    assert tuple(sorted(witness)) == cert.witness
    assert table.size == size


# --------------------------------------------------------------------------
# one entry into the table: run keys land where they are requested

# one-child runs from the root, below a branching vertex and down to a
# branching vertex
RUN_TREES = [path_graph([RED, BLUE] * 5), path_graph([RED] * 7 + [BLUE]),
             runs_path(12, 2, 1, 3, 5), caterpillar(6, 2, 1, 2, 5),
             spider(3, 3, 2, 4, 6), LEG_ROOTED_SPIDER,
             broom([RED, RED, BLUE, BLUE, RED, RED], [BLUE, RED, BLUE])] + STRETCH_TREES


def _run_keys(tree):
    """Every key of a one-child vertex's ``T_1(v)`` with finite ``din >= 1``
    that passes the color tests, under every outside."""
    masks = range(1, 1 << tree.graph.c)
    for v in range(1, tree.graph.n + 1):
        if tree.run[v]:
            for dext in list(range(1, tree.depth_limit(v, 1) + 3)) + [INF]:
                for cext in ([0] if dext == INF else masks):
                    for key in _side_keys(tree, v, 1, 1, dext, cext):
                        if key[2] != INF:
                            yield key


@pytest.mark.parametrize("g", RUN_TREES)
def test_no_run_key_reaches_compute(g, monkeypatch):
    # dp_entry (the root scan's entry too) and _subkey_pairs, for the split
    # loop's right keys, land a key of an unchosen one-child vertex before
    # it could be computed
    compute = treedp._compute
    computed = []

    def checked(tree, key, table):
        v, _i, din = key[:3]
        assert not (0 < din < INF and tree.run[v]), key
        computed.append(key)
        return compute(tree, key, table)

    monkeypatch.setattr(treedp, "_compute", checked)
    solve_tree_mcs_detailed(g)
    tree = root_tree(g, 1)
    keys = list(_run_keys(tree))
    assert keys
    for key in keys:
        dp_entry(tree, key, DPTable())
    assert computed


@pytest.mark.parametrize("g", RUN_TREES)
def test_run_side_keys_fold_the_depth_scan(g):
    # under an outside at dext <= d0 + 1 holding u's color, the scan by
    # color segment yields the landed keys of the depth-by-depth scan, save
    # that the chosen keys of a monochrome stretch come as its first vertex
    tree = root_tree(g, 1)
    bit = tree.color_bit
    scanned = 0
    for u in range(1, g.n + 1):
        if not tree.run[u]:
            continue
        depth = tree.depth_limit(u, 1)
        for dext in range(1, depth + 3):
            for cext in range(1, 1 << g.c):
                if not bit[u] & cext:
                    continue
                for d0 in range(max(0, dext - 1), depth + 2):
                    want = [_run_landing(tree, key) if 0 < key[2] < INF else key
                            for key in _side_keys(tree, u, 1, d0, dext, cext)]
                    got = []
                    for key in _run_side_keys(tree, u, d0, dext, cext):
                        if isinstance(key, int):
                            stretch = [key]
                            while (len(tree.children[stretch[-1]]) == 1
                                   and bit[tree.children[stretch[-1]][0]] == bit[key]):
                                stretch.append(tree.children[stretch[-1]][0])
                            assert len(stretch) > 1
                            got += [(x, tree.eta(x), 0, INF, bit[x], 0) for x in stretch]
                        else:
                            got.append(key)
                    assert got == want, (u, d0, dext, cext)
                    scanned += 1
    assert scanned


@pytest.mark.parametrize("g", RUN_TREES + [build(*args)
                               for build, args, _ in WITNESS_GOLDENS])
def test_keys_reaching_compute_pass_the_exact_depth_test(g, monkeypatch):
    # _compute runs no color test: every key the fill builds takes its
    # inside colors from the level at its inside distance
    compute = treedp._compute
    computed = []

    def checked(tree, key, table):
        v, i, din, _dext, cin, _cext = key
        assert tree.avail(v, i, din) & cin == cin, key
        computed.append(key)
        return compute(tree, key, table)

    monkeypatch.setattr(treedp, "_compute", checked)
    solve_tree_mcs_detailed(g)
    assert computed


def test_dp_entry_runs_the_exact_depth_test():
    # a key from outside the fill may name a color absent at its inside
    # distance.  Each key here passes v's own test (red is in cin), and at
    # din <= 1 with no outside neither bound applies.  On the star with a
    # red centre and blue leaves, only red lies at depth 0 and only blue at
    # depth 1; _compute, which runs no color test, would count a key of
    # T_0(1) = {1} as choosing 1.
    tree = root_tree(star_graph(RED, [BLUE, BLUE]), 1)
    for key in [(1, 0, 0, INF, RBIT | BBIT, 0), (1, 0, 1, INF, RBIT, 0),
                (1, 2, 1, INF, RBIT | BBIT, 0)]:
        v, i, din, _dext, cin, _cext = key
        assert tree.color_bit[v] & cin
        assert tree.avail(v, i, din) & cin != cin
        assert dp_entry(tree, key, DPTable()) == INF, key


@pytest.mark.parametrize("g", RUN_TREES + [build(*args)
                               for build, args, _ in WITNESS_GOLDENS])
def test_every_finite_key_below_v_has_a_step(g):
    # witness reconstruction follows step alone, so every stored key with a
    # finite value whose chosen vertices lie below v needs an entry, after a
    # solve and after run keys are asked for through dp_entry
    cert, tree, table = solve_tree_mcs_detailed(g)
    runs = list(_run_keys(tree)) if g.n <= 14 else []
    for key in runs:
        dp_entry(tree, key, table)
    for key, val in table.memo.items():
        if val < INF and key[2] < INF and key[1] >= 1:
            assert key in table.step, key
    for key in runs:
        if table.memo[key] < INF:
            witness = reconstruct_witness(tree, key, table)
            assert witness <= prefix_vertices(tree, key[0], key[1])
