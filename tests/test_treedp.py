import gc
import itertools
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from consistent_subset import (ColoredGraph, PreconditionError,
                               brute_force_mcs, is_consistent, random_tree,
                               solve_tree_mcs)
from consistent_subset import treedp
from consistent_subset.treedp import (INF, DPTable, dp_entry,
                                      reconstruct_witness, root_tree,
                                      solve_tree_mcs_detailed, _run_landing,
                                      _run_side_keys, _side_keys)

from helpers import (RRBB, broom, caterpillar, comb, make_dp_key, path_graph,
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
GREEN, GBIT = 3, 4
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
    assert _depth_limit(t, 1, t.eta(1)) == 3 and _depth_limit(t, 4, t.eta(4)) == 0


def test_root_star():
    star = star_graph(RED, [BLUE, BLUE, BLUE])
    t = root_tree(star, 1)
    assert t.eta(1) == 3
    assert all(_depth_limit(t, leaf, t.eta(leaf)) == 0 for leaf in (2, 3, 4))


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
    assert [_avail(t, 1, 1, d) for d in range(4)] == [RBIT, RBIT, BBIT, BBIT]
    assert _avail(t, 1, 1, 9) == 0
    assert _avail(t, 3, t.eta(3), 1) == BBIT
    # negative depths and radii hold nothing (they must not index from the
    # far end)
    assert _avail(t, 1, 1, -1) == 0
    assert _avail(t, 3, t.eta(3), -1) == 0
    assert _avail(t, 1, t.eta(1), -1) == 0
    assert [_near(t, 1, 1, r) for r in (-1, 0, 1, 3, INF)] == [0, 0, RBIT, RBIT | BBIT,
                                                               RBIT | BBIT]
    assert _near(t, 3, 1, -1) == 0


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


def test_make_dp_key_keeps_one_form_per_tie():
    # an outside tied with the inside keeps only its colors missing from cin
    # (see "Ties"), and with none left it is the farther outside's (INF, 0)
    assert make_dp_key(2, 1, 2, 2, RBIT, RBIT | BBIT) == (2, 1, 2, 2, RBIT, BBIT)
    assert make_dp_key(2, 1, 2, 2, RBIT | BBIT, BBIT) == (2, 1, 2, INF, RBIT | BBIT, 0)
    assert make_dp_key(2, 1, 2, 2, RBIT, RBIT) == (2, 1, 2, INF, RBIT, 0)


def test_leaf_entries():
    # blue root with one red leaf; evaluate the leaf's base cases
    g = path_graph([BLUE, RED])
    t = root_tree(g, 1)
    table = DPTable()
    chosen = make_dp_key(2, 0, 0, 1, RBIT, RBIT)
    assert dp_entry(t, chosen, table) == 1
    covered = make_dp_key(2, 0, INF, 1, 0, RBIT)
    assert dp_entry(t, covered, table) == 0
    # an outside of the wrong color, and choosing the leaf under a
    # contradictory color claim, fail the color tests: such keys are worth
    # INF, and dp_entry takes only keys that pass
    mismatched = make_dp_key(2, 0, INF, 1, 0, BBIT)
    assert not _admissible(t, *mismatched)
    wrong_self = make_dp_key(2, 0, 0, 1, BBIT, BBIT)
    assert not _admissible(t, *wrong_self)


def test_entries_memoized():
    g = path_graph([RED, RED, BLUE, BLUE])
    t = root_tree(g, 1)
    table = DPTable()
    key = make_dp_key(1, 1, 1, INF, RBIT, 0)
    assert _admissible(t, *key)
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
    # every key the solve built is valid and canonical (a tie's outside holds
    # no color of cin), and passes the color tests that the solver runs only
    # where it generates keys
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
    # the trees whose keys one form per tie cut most, of the Prüfer trees,
    # caterpillars and spiders tried (recorded before that rule)
    (random_tree, (54, 3, 161), (1, 16, 34, 39, 52)),
    (random_tree, (56, 3, 121), (6, 12, 24, 27, 31, 32, 33, 38, 39, 53)),
    (caterpillar, (24, 3, 1, 3, 99), (18, 45, 46, 47, 48, 49)),
    (spider, (5, 3, 5, 12, 47), (5, 6, 8, 13, 15, 16, 27, 33, 35)),
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
    # and 16,441.  On the path 1...1 2 a chosen vertex scanned one child key
    # per inside distance, and storing those before they landed built
    # n(n+1)/2 = 500,500 keys.  Before every first-child prefix landed on
    # its child's subtree and the keys worth 0 or 1 stayed out of the memo,
    # the alternating path took 799 keys, the runs-paths 193 and 997, the
    # caterpillar 930, the path 1...1 2 2,996 and the 1,000-vertex comb
    # 336,993.  Before one form per tie, the caterpillar took 487 keys, the
    # Prüfer tree 184 and the comb 85,496.  Each bound leaves about 10% over
    # today's count.
    g = path_graph([RED, BLUE] * 200)
    assert solve_tree_mcs_detailed(g)[2].size <= 440
    for g, most in ((runs_path(80, 2, 15, 30, 11), 104),
                    (caterpillar(35, 3, 8, 15, 8), 465),
                    (runs_path(400, 2, 100, 100, 1), 550),
                    (path_graph([RED] * 999 + [BLUE]), 2_200),
                    (random_tree(40, 2, 10), 175)):
        _cert, tree, table = solve_tree_mcs_detailed(g)
        assert table.size <= most
        # the solver never stores a key that its color tests reject
        assert all(_admissible(tree, *key) for key in table.memo)
    # the comb's optimum lies at the far end of its spine, so the root scan
    # builds one chain of spine keys per inside distance
    cert, tree, table = solve_tree_mcs_detailed(comb(500, 2))
    assert cert.witness == (500, 999)
    assert table.size <= 93_500


def test_monochrome_stretch_work_guard(monkeypatch):
    # split pairs and color-test calls, not time: on the path 1...1 2 a
    # chosen vertex scanned one child key per inside distance (498,503
    # pairs, 501,496 _need calls), and on two 1,000-vertex runs each scan
    # ran _need down the second run (503,497 pairs, 1,001,999 calls).  By
    # color segment they are 1,000 and 2,995, and 4,996 and 3,998.  Each
    # bound leaves about 10% over that; keys and witnesses did not change.
    # The keys are pinned: 2,996 and 4,998 before first-child prefixes
    # landed and the keys worth 0 or 1 stayed out of the memo.
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
            (path_graph([RED] * 999 + [BLUE]), 1_100, 3_300, 1_996, (998, 1000)),
            (runs_path(2000, 2, 1000, 1000, 1), 5_500, 4_400, 1_999, (1, 1999))):
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


def _worth(values, din, dext, cin, cext):
    """The least size over :func:`_enumerated_values`'s subsets with
    ``din``/``cin`` whose required outside mask lies within ``cext``."""
    return min((k for need, k in values.get((din, cin, dext), ()) if not need & ~cext),
               default=INF)


# both-sides splits of a key (the left part and the child both attain din,
# under an outside tied there or farther) whose child colors repeat a color
# of the left part, with the left key the solve stores.  On the star, the
# red centre 1 and leaves blue 2, red 3, blue 4, the left key's outside,
# 4's blue, lies wholly in cin and is dropped.  On the second tree 6 is the
# green parent of green 3, red 4 and red 5, below blue 1 and above green 2:
# the outside {red 5, blue 1} keeps blue.
TIE_SPLITS = [
    (star_graph(RED, [BLUE, RED, BLUE]),
     (1, 3, 1, INF, RBIT | BBIT, 0), (1, 2, 1, INF, RBIT | BBIT, 0)),
    (ColoredGraph(6, 3, [(1, 6), (2, 5), (3, 6), (4, 6), (5, 6)],
                  [BLUE, GREEN, GREEN, RED, RED, GREEN]),
     (6, 3, 1, 1, RBIT | GBIT, BBIT), (6, 2, 1, 1, RBIT | GBIT, BBIT)),
]

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
                     + STRETCH_TREES + [g for g, _key, _left in TIE_SPLITS])


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
                            want = _worth(values, din, dext, cin, cext)
                            key = make_dp_key(v, i, din, dext, cin, cext)
                            if _admissible(tree, *key):
                                assert dp_entry(tree, key, table) == want, key
                            else:
                                assert want == INF, key
                                rejected += dext < din
                            if _far_rejects(tree, *key):
                                assert want == INF, key
                                far_only += _passes_other_tests(tree, *key)
    assert rejected > 0
    # (the shallower trees here have no key that the far bound alone decides)
    assert far_only > 0 or _depth_limit(tree, 1, tree.eta(1)) < 3


@pytest.mark.parametrize("g", ENUMERATION_TREES)
def test_tie_keys_match_their_canonical_form(g):
    # where the outside ties the inside, a prefix vertex that sees the
    # outside already sees all of cin (see "Ties"), so by enumeration a tie
    # key whose outside repeats colors of cin is worth what its canonical
    # form is worth: the outside less those colors, or no outside at all
    tree = root_tree(g, 1)
    masks = range(1, 1 << g.c)
    finite = 0
    for v in range(1, g.n + 1):
        for i in range(tree.eta(v) + 1):
            values, depth = _enumerated_values(g, tree, v, i)
            for din in range(1, depth + 1):
                for cin in masks:
                    for cext in masks:
                        if cext & cin:
                            want = _worth(values, din, din, cin, cext)
                            key = make_dp_key(v, i, din, din, cin, cext)
                            assert _worth(values, *key[2:]) == want, key
                            finite += want < INF
    assert finite > 0


@pytest.mark.parametrize("g,key,left", TIE_SPLITS)
def test_both_sides_split_meets_a_tie(g, key, left):
    # the solve stores the key and the canonical left key of its split in
    # which both sides attain din and the child repeats a color of the left
    # part; that left key's raw outside (the child's colors, and the old
    # outside's when it ties) is not canonical
    _cert, tree, table = solve_tree_mcs_detailed(g)
    assert key in table.memo and left in table.memo
    v, i, din, dext, _cin, cext = key
    child = tree.children[v][i - 1]
    tied = cext if dext == din else 0
    outsides = [b[4] | tied for a, b in treedp._subkey_pairs(tree, key)
                if a == left and b[:3] == (child, tree.eta(child), din - 1)]
    assert outsides
    for outside in outsides:
        assert outside & left[4]
        assert make_dp_key(v, i - 1, din, din, left[4], outside) == left


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


# test-local readers of the prefix rows, and the color tests as one
# predicate: the solver reads the rows inline and runs the tests where it
# generates keys

def _depth_limit(tree, v, i):
    """Largest hop distance from ``v`` realized inside ``T_i(v)``."""
    return tree._top[v][i]


def _avail(tree, v, i, d):
    """Colors present at exact distance ``d`` from ``v`` within ``T_i(v)``."""
    top = tree._top[v][i]
    return tree._pref[v][i][top - d] if 0 <= d <= top else 0


def _near(tree, v, i, r):
    """Colors at distance below ``r`` from ``v`` within ``T_i(v)`` (every
    color of the prefix when ``r`` is ``INF``)."""
    row = tree._near[v][i]
    if r >= len(row):
        return row[-1]
    return row[r] if r > 0 else 0


def _far(tree, v, i, d, k):
    """Colors at distance ``k`` (``>= 1``) or more from ``v`` on the path
    from ``v`` down to ``x``, the LCA of the vertices of ``T_i(v)`` at
    distance ``d``; 0 when ``x`` is ``v`` or no vertex lies at ``d``."""
    top = tree._top[v][i]
    x = tree._lca[v][i][top - d] if 0 <= d <= top else v
    if x == v:
        return 0
    t = tree._depth[v] + k
    out = 0
    for depth, mask in tree._up[x]:
        if depth < t:
            break
        out = mask
    return out


def _admissible(tree, v, i, din, dext, cin, cext):
    """The color tests that every feasible canonical key passes:
    ``_need`` and the exact-depth test (every color of ``cin`` occurs at
    depth ``din``)."""
    return (not treedp._need(tree, v, i, din, dext, cext) & ~cin
            and _avail(tree, v, i, din) & cin == cin)


def _far_rejects(tree, v, i, din, dext, cin, cext):
    """The far-side bound: some vertex on the path from ``v`` to the LCA of
    the prefix's level ``din``, nearer to that level than to the outside,
    has a color outside ``cin``."""
    if din == INF:
        return False
    k = (din - dext) // 2 + 1 if dext < din else 1
    return bool(_far(tree, v, i, din, k) & ~cin)


def _passes_other_tests(tree, v, i, din, dext, cin, cext):
    """The exact-depth test, the near-outside bound and ``v``'s own test."""
    if _avail(tree, v, i, din) & cin != cin:
        return False
    if dext < din:
        return not _near(tree, v, i, (din - dext + 1) // 2) & ~cext
    return bool((cin | (cext if dext == din else 0)) & tree.color_bit[v])


def _ref_need(tree, v, i, din, dext, cext):
    """``_need`` for a finite ``din``, read through :func:`_near`,
    :func:`_far` and ``color_bit``: -1 when the near-outside bound
    fails, else ``v``'s own color (unless a tied outside shows it) and the
    colors that the far-side bound asks of ``cin``."""
    if dext < din:
        if _near(tree, v, i, (din - dext + 1) // 2) & ~cext:
            return -1
        k, need = (din - dext) // 2 + 1, 0
    else:
        bit = tree.color_bit[v]
        k, need = 1, (0 if dext == din and cext & bit else bit)
    return need | _far(tree, v, i, din, k) if din >= 2 else need


@pytest.mark.parametrize("g", ENUMERATION_TREES)
def test_need_matches_the_row_readers(g):
    # _need indexes the prefix rows directly; on every prefix, finite din,
    # outside distance and outside mask it gives what the readers give.
    # Under a nearer outside every color it asks comes from the far side
    tree = root_tree(g, 1)
    masks = range(1, 1 << g.c)
    far_colors = 0
    for v in range(1, g.n + 1):
        for i in range(tree.eta(v) + 1):
            depth = _depth_limit(tree, v, i)
            for din in range(depth + 2):
                for dext in list(range(1, depth + 3)) + [INF]:
                    for cext in ([0] if dext == INF else masks):
                        want = _ref_need(tree, v, i, din, dext, cext)
                        assert treedp._need(tree, v, i, din, dext, cext) == want, \
                            (v, i, din, dext, cext)
                        far_colors += dext < din and want > 0
    # (a tree of height 1 has no far side)
    assert far_colors > 0 or _depth_limit(tree, 1, tree.eta(1)) < 2


def _lca_row(tree, v, i):
    """LCA of the vertices of ``T_i(v)`` at each distance from ``v``."""
    top = _depth_limit(tree, v, i)
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
                assert _depth_limit(tree, v, i) == top, (root, v, i)
                assert ([_avail(tree, v, i, d) for d in range(-1, top + 2)]
                        == [0] + levels + [0]), (root, v, i)
                below = [0]
                for mask in levels:
                    below.append(below[-1] | mask)
                assert ([_near(tree, v, i, r) for r in range(-1, top + 3)]
                        == [0] + below + [below[-1]]), (root, v, i)
                assert _near(tree, v, i, INF) == below[-1], (root, v, i)
                assert _far(tree, v, i, top + 1, 1) == 0, (root, v, i)
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
    assert _far(tree, 1, 1, 4, 1) == BBIT
    assert _far(tree, 1, 1, 4, 3) == 0    # 3 lies at depth 2
    for key in [(1, 1, 4, INF, RBIT, 0),
                # an outside at 2 ties with 2, so only 3 must see red alone
                (1, 1, 4, 2, RBIT, RBIT | BBIT)]:
        assert _passes_other_tests(tree, *key)
        assert not _admissible(tree, *key)
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
    # on the blue centre 1 with leaves blue 2 and red 3, choosing 2 alone
    # at distance 1 passes the color tests, but leaves 3 seeing blue alone
    tree = root_tree(star_graph(BLUE, [BLUE, RED]), 1)
    infeasible = (1, 2, 1, INF, BBIT, 0)
    assert _admissible(tree, *infeasible)
    table2 = DPTable()
    assert dp_entry(tree, infeasible, table2) == INF
    with pytest.raises(ValueError):
        reconstruct_witness(tree, infeasible, table2)


def test_reconstruction_builds_no_key_and_does_not_recurse():
    # on a 1,000-vertex alternating path every vertex is chosen, so the
    # witness walk re-scans about 1,000 splits down the path, and stores
    # neither a key nor a stretch
    g = path_graph([RED, BLUE] * 500)
    cert, tree, table = solve_tree_mcs_detailed(g)
    r = tree.root
    key = next(key for key in _side_keys(tree, r, tree.eta(r), 0, INF, 0)
               if table.memo.get(key) == cert.size)
    size, stretches = table.size, len(table.stretch)
    caller = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        witness = reconstruct_witness(tree, key, table)
    finally:
        sys.setrecursionlimit(caller)
    assert tuple(sorted(witness)) == cert.witness
    assert table.size == size and len(table.stretch) == stretches


def test_witness_walk_work_guard(monkeypatch):
    # split scans, not time: the walk re-runs _subkey_pairs at each split
    # key it visits, and on the 400-vertex alternating path every vertex is
    # chosen, so it re-scans 399 splits, each for one pair.  A cheaper walk
    # may tighten this bound.
    g = path_graph([RED, BLUE] * 200)
    cert, tree, table = solve_tree_mcs_detailed(g)
    r = tree.root
    key = next(key for key in _side_keys(tree, r, tree.eta(r), 0, INF, 0)
               if table.memo.get(key) == cert.size)
    calls = 0
    subkey_pairs = treedp._subkey_pairs

    def counted_pairs(tree, key):
        nonlocal calls
        calls += 1
        return subkey_pairs(tree, key)

    monkeypatch.setattr(treedp, "_subkey_pairs", counted_pairs)
    assert tuple(sorted(reconstruct_witness(tree, key, table))) == cert.witness
    assert calls <= g.n, calls


# --------------------------------------------------------------------------
# one entry into the table: first-child keys land where they are requested

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
            for dext in list(range(1, _depth_limit(tree, v, 1) + 3)) + [INF]:
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


# first-child prefixes of branching vertices: comb and caterpillar spines,
# and a broom handle whose first child branches
FIRST_CHILD_TREES = [comb(5, 2), comb(6, 0), comb(7, 1), caterpillar(5, 2, 1, 2, 3),
                     caterpillar(4, 3, 1, 2, 7), broom([RED, BLUE, RED], [BLUE, RED, RED]),
                     random_tree(12, 3, 5)]


@pytest.mark.parametrize("g", RUN_TREES + FIRST_CHILD_TREES)
def test_no_first_child_key_reaches_compute(g, monkeypatch):
    # a key of T_1(v) with finite din >= 1 has one split whatever v's child
    # count, so dp_entry and _subkey_pairs (left keys at i == 2 as well as
    # right keys) land it on v's first child's subtree, branching v included
    compute = treedp._compute
    computed = []

    def checked(tree, key, table):
        _v, i, din = key[:3]
        assert not (i == 1 and 0 < din < INF), key
        computed.append(key)
        return compute(tree, key, table)

    monkeypatch.setattr(treedp, "_compute", checked)
    _cert, tree, table = solve_tree_mcs_detailed(g)
    # an empty inside is worth 0 and a key of T_0(v) is worth 1: the fill
    # reads those values where it meets them and stores neither (only a root
    # key, which dp_entry stores, could be one; none is here)
    assert all(key[2] != INF and key[1] >= 1 for key in table.memo)
    masks = range(1, 1 << g.c)
    keys = [key for v in range(1, g.n + 1) if tree.eta(v)
            for dext in list(range(1, _depth_limit(tree, v, 1) + 3)) + [INF]
            for cext in ([0] if dext == INF else masks)
            for key in _side_keys(tree, v, 1, 1, dext, cext) if key[2] != INF]
    branching = any(tree.eta(v) >= 2 for v in range(1, g.n + 1))
    assert keys and (not branching or any(tree.eta(key[0]) >= 2 for key in keys))
    for key in keys:
        dp_entry(tree, key, DPTable())
    assert computed


@pytest.mark.parametrize("g", [comb(s, phase) for s in range(1, 9) for phase in range(3)]
                         + [broom(handle, bristles)
                            for handle in ([RED], [RED, BLUE], [BLUE, BLUE, RED, RED],
                                           [RED, BLUE, RED, BLUE, BLUE])
                            for bristles in ([BLUE, RED], [RED, RED, BLUE],
                                             [GREEN, BLUE, RED, BLUE])]
                         + [caterpillar(spine, c, 1, 3, seed) for spine, c, seed in
                            ((3, 2, 1), (4, 2, 2), (5, 3, 3), (6, 2, 4), (6, 3, 5))])
def test_matches_brute_force_where_first_children_branch(g):
    # a first-child prefix lands on its child's subtree with one color test,
    # at the tie vertex; brute force at cap=n checks the optimum, and every
    # key stored, landing keys included, passes the color tests
    assert g.n <= 16
    cert, tree, table = solve_tree_mcs_detailed(g)
    assert cert.size == brute_force_mcs(g, cap=g.n).size
    assert is_consistent(g, cert.witness)
    assert all(_admissible(tree, *key) for key in table.memo)


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
        depth = _depth_limit(tree, u, 1)
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
                            stretch = _stretch(tree, key)
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
        assert _avail(tree, v, i, din) & cin == cin, key
        computed.append(key)
        return compute(tree, key, table)

    monkeypatch.setattr(treedp, "_compute", checked)
    solve_tree_mcs_detailed(g)
    assert computed


def _stretch(tree, w):
    """``w``'s monochrome stretch: the vertices of its run from ``w`` down,
    the bottom one included, while they keep ``w``'s color."""
    out = [w]
    while (len(tree.children[out[-1]]) == 1
           and tree.color_bit[tree.children[out[-1]][0]] == tree.color_bit[w]):
        out.append(tree.children[out[-1]][0])
    return out


def _ref_witness(tree, key, table, cache):
    """Chosen vertices of ``key``'s first strict minimum over every pair of
    ``_subkey_pairs``, a stretch unfolded into its vertices' chosen keys,
    with both sides' values computed in ``table``; built recursively."""
    if key not in cache:
        v, i, din = key[:3]
        if din == INF:
            cache[key] = frozenset()
        elif not i:
            cache[key] = frozenset({v})
        else:
            bit = tree.color_bit[v]
            best, pair = INF, ()
            for left, right in treedp._subkey_pairs(tree, key):
                # a chosen v's one split keeps v chosen on the left: the key
                # of T_{i-1}(v), which is T_0's at i == 1
                assert din or left == (v, i - 1, 0, INF, bit, 0), key
                rights = ([] if right is None else
                          [(x, tree.eta(x), 0, INF, tree.color_bit[x], 0)
                           for x in _stretch(tree, right)]
                          if isinstance(right, int) else [right])
                lval = treedp._value(tree, left, table)
                for right in rights:
                    total = lval + treedp._value(tree, right, table)
                    if total < best:
                        best, pair = total, (left, right)
            cache[key] = frozenset().union(
                *(_ref_witness(tree, side, table, cache) for side in pair))
            assert len(cache[key]) == best, key
    return cache[key]


@pytest.mark.parametrize("g", RUN_TREES + [build(*args)
                               for build, args, _ in WITNESS_GOLDENS])
def test_witness_walk_takes_the_first_argmin(g):
    # the table stores values alone, and the witness walk re-scans splits
    # against them: for every stored key with a finite value whose chosen
    # vertices lie below v, after a solve and after run keys are asked for
    # through dp_entry, it finds the first argmin that a scan with every
    # side fully evaluated finds (on a copy of the table)
    cert, tree, table = solve_tree_mcs_detailed(g)
    # every key the fill stored is canonical, landing and right keys on a
    # tie included
    assert all(make_dp_key(*key) == key for key in table.memo)
    runs = list(_run_keys(tree)) if g.n <= 14 else []
    for key in runs:
        dp_entry(tree, key, table)
    full = DPTable()
    full.memo.update(table.memo)
    full.stretch.update(table.stretch)
    cache: dict = {}
    walked = 0
    for key, val in table.memo.items():
        # a chosen v's key has one form
        if key[2] == 0:
            v = key[0]
            assert key == (v, key[1], 0, INF, tree.color_bit[v], 0), key
        if val < INF and key[2] < INF and key[1] >= 1:
            witness = reconstruct_witness(tree, key, table)
            assert witness == _ref_witness(tree, key, full, cache), key
            assert witness <= prefix_vertices(tree, key[0], key[1])
            walked += 1
    assert walked


def test_table_memory_per_key():
    # the table stores one value per key and a (value, key) per stretch
    # vertex.  On the 600-vertex comb the bytes a solve leaves allocated,
    # rooted tree and table together, read 370 per memo key while the table
    # also recorded each key's first argmin, and 182 without it (Python 3.11)
    g = comb(300, 2)
    gc.collect()
    tracemalloc.start()
    try:
        _cert, _tree, table = solve_tree_mcs_detailed(g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / table.size <= 250, (held, table.size)


def test_inf_is_a_one_digit_int():
    # CPython specialises int compares only between ints of one 30-bit digit,
    # and an int meeting a float takes the generic path, so every distance
    # and value the fill compares is such an int: INF, or at most n
    assert type(INF) is int and 0 < INF < 1 << 30
    for g in [comb(300, 2), path_graph([RED, BLUE] * 200)] + [
            random_tree(60, 3, seed) for seed in (1, 2, 3)]:
        cert, _tree, table = solve_tree_mcs_detailed(g)
        assert type(cert.size) is int

        def small(x):
            return type(x) is int and (x == INF or 0 <= x <= g.n)

        for key, val in table.memo.items():
            assert small(key[2]) and small(key[3]) and small(val), (key, val)
        for val, key in table.stretch.values():
            assert small(val), val
            assert key is None or (small(key[2]) and small(key[3])), key
