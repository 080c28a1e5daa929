import itertools
import sys

import pytest

from consistent_subset import (ColoredGraph, PreconditionError,
                               SetCoverInstance, blocks, brute_force_mcs,
                               brute_force_mscs, exact, is_consistent,
                               is_strict_consistent, random_connected_graph,
                               random_tree)
from consistent_subset.exact import (min_dominating_set, min_set_cover,
                                     min_vertex_cover)

from helpers import (RRBB, caterpillar, complete_graph, cycle_graph,
                     path_graph, ref_adjacency, ref_distances,
                     ref_is_consistent, ref_min_dominating, ref_min_set_cover,
                     ref_min_vertex_cover, ref_minimum_subset, runs_path,
                     spider, star_graph)


# --------------------------------------------------------------------------
# golden values

def test_mcs_goldens():
    assert brute_force_mcs(RRBB).size == 2
    assert brute_force_mcs(RRBB).witness == (1, 3)
    star = star_graph(1, [2, 2, 2])
    assert brute_force_mcs(star).size == 4
    mono = path_graph([1, 1, 1])
    cert = brute_force_mcs(mono)
    assert cert.size == 1 and cert.witness == (1,)


def test_mscs_goldens():
    assert brute_force_mscs(RRBB).size == 2
    assert brute_force_mscs(RRBB).witness == (1, 4)
    rbr = path_graph([1, 2, 1])
    assert brute_force_mscs(rbr).size == 3
    mono = path_graph([1, 1, 1])
    assert brute_force_mscs(mono).size == 1


def test_certificate_shape():
    cert = brute_force_mcs(RRBB)
    assert cert.variant == "mcs"
    assert cert.provenance == "brute-force-optimal"
    assert brute_force_mscs(RRBB).variant == "mscs"


def test_witnesses_pass_checkers():
    for seed in range(10):
        g = random_connected_graph(2 + seed % 7, 1 + seed % 3, seed)
        assert is_consistent(g, brute_force_mcs(g).witness)
        assert is_strict_consistent(g, brute_force_mscs(g).witness)


# --------------------------------------------------------------------------
# independent-oracle equivalence (also proves the pruning sound)

def two_colour_complete_graph(n):
    return ColoredGraph(n, 2, itertools.combinations(range(1, n + 1), 2),
                        [1 + v % 2 for v in range(1, n + 1)])


def reference_cases():
    for seed in range(30):
        yield random_connected_graph(2 + seed % 6, 1 + seed % 3, 100 + seed)
    for seed in range(16):
        yield random_tree(2 + seed % 8, 1 + seed % 4, 600 + seed)
    for n in range(3, 10):
        # runs of 1-3 vertices in 2-3 colours
        yield cycle_graph([1 + (v // (1 + n % 3)) % (2 + n % 2) for v in range(n)])
    for n in range(2, 10):
        # the optimum is all of V, so every subset before it is tested
        yield path_graph([1, 2] * (n // 2) + [1] * (n % 2))
    for leaves in ([2, 2, 2], [1, 2, 2, 3], [2, 1, 2, 1, 2], [3, 3, 1, 2, 2, 1, 3, 2]):
        yield star_graph(1, leaves)
        yield star_graph(2, leaves)
    for n in range(2, 9):
        yield two_colour_complete_graph(n)


def test_matches_unpruned_reference_enumeration():
    # a test that wrongly rejects a candidate gives a later or larger
    # witness, one that wrongly accepts gives an earlier or smaller one
    for g in reference_cases():
        assert g.n <= 9
        colors = {v: g.color[v] for v in range(1, g.n + 1)}
        for strict, solver in ((False, brute_force_mcs), (True, brute_force_mscs)):
            expected = ref_minimum_subset(g.n, colors, g.edges, strict)
            got = solver(g)
            assert got.witness == expected
            assert got.size == len(expected)


# sizes and first witnesses, (mcs, mscs), past the reference's reach; a
# change to the enumeration order or the consistency test moves them
BRUTE_WITNESS_GOLDENS = [
    (path_graph, ([1, 2] * 8,), tuple(range(1, 17)), tuple(range(1, 17))),
    (random_tree, (14, 2, 1), (7, 11), (2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 14)),
    (random_tree, (15, 3, 2), (1, 2, 4, 6, 10, 11, 14),
     (1, 3, 4, 6, 9, 10, 11, 12, 13, 14, 15)),
    (random_tree, (16, 2, 3), (2, 4, 5, 6, 15), (1, 4, 5, 6, 7, 8, 9, 12, 14, 15, 16)),
    (random_tree, (16, 3, 4), (1, 3, 5, 6, 7, 8, 9, 10, 12, 14, 16),
     (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16)),
    (random_connected_graph, (12, 2, 5), (1, 5), tuple(range(1, 13))),
    (random_connected_graph, (13, 3, 6), (3, 4, 8, 9), tuple(range(1, 14))),
    (random_connected_graph, (14, 2, 7), (1, 3, 4, 14), tuple(range(1, 15))),
    (runs_path, (16, 3, 1, 3, 8), (1, 5, 6, 7, 8, 10, 12, 13, 14),
     (2, 5, 6, 7, 8, 11, 12, 13, 14)),
    (caterpillar, (7, 2, 1, 3, 9), (11, 12), (1, 2, 3, 4, 5, 6, 7, 8, 12, 15)),
    (spider, (3, 3, 3, 5, 10), (1, 2, 4, 7, 8, 10, 14), (1, 2, 5, 7, 8, 10, 11, 14)),
    (cycle_graph, ([1, 1, 2, 3, 3, 2, 1, 2, 2, 3, 1, 3, 2, 1],),
     (1, 3, 4, 6, 7, 8, 10, 11, 12, 13), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)),
]


@pytest.mark.parametrize("build,args,mcs,mscs", BRUTE_WITNESS_GOLDENS,
                         ids=[f"{b.__name__}{i}" for i, (b, *_) in enumerate(BRUTE_WITNESS_GOLDENS)])
def test_brute_witness_goldens(build, args, mcs, mscs):
    g = build(*args)
    assert 12 <= g.n <= 16
    for solver, witness in ((brute_force_mcs, mcs), (brute_force_mscs, mscs)):
        cert = solver(g)
        assert (cert.size, cert.witness) == (len(witness), witness)


# the same at the default cap, pinned before the depth-first walk replaced
# plain enumeration of every k-subset
BRUTE_CAP_GOLDENS = [
    (path_graph, ([1, 2] * 10,), "mcs", tuple(range(1, 21))),
    (random_tree, (20, 4, 1), "mcs",
     (1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 15, 17, 18, 19, 20)),
    (random_tree, (18, 3, 0), "mcs", (1, 4, 6, 11, 13)),
    (random_tree, (18, 3, 0), "mscs", (4, 5, 9, 11, 14, 17)),
    (random_tree, (19, 2, 5), "mcs", (2, 5, 6)),
    (random_tree, (19, 2, 5), "mscs", (1, 2, 3, 4, 6, 9, 10, 12, 13, 16, 17, 19)),
    (random_connected_graph, (20, 2, 1), "mscs", tuple(range(1, 21))),
]


@pytest.mark.parametrize("build,args,variant,witness", BRUTE_CAP_GOLDENS,
                         ids=[f"{b.__name__}{i}-{v}" for i, (b, _a, v, _w)
                              in enumerate(BRUTE_CAP_GOLDENS)])
def test_brute_witness_goldens_at_cap(build, args, variant, witness):
    g = build(*args)
    assert 18 <= g.n <= exact.DEFAULT_VERTEX_CAP
    cert = (brute_force_mscs if variant == "mscs" else brute_force_mcs)(g)
    assert (cert.size, cert.witness) == (len(witness), witness)


def test_brute_witness_golden_past_the_default_cap():
    # 28 vertices at cap=28, with a 14-vertex optimum
    g = random_tree(28, 3, 2)
    cert = brute_force_mcs(g, cap=28)
    assert (cert.size, cert.witness) == (
        14, (1, 2, 4, 5, 6, 7, 12, 13, 16, 18, 20, 21, 24, 26))


def prefix_cases():
    for n in range(2, 7):
        for colors in (1, 2, 3):
            for seed in range(3):
                yield random_tree(n, colors, 700 + 10 * n + seed)
                yield random_connected_graph(n, colors, 800 + 10 * n + seed)


def submasks(mask):
    """Every submask of ``mask``, from ``mask`` itself down to 0."""
    part = mask
    while True:
        yield part
        if not part:
            return
        part = (part - 1) & mask


def bfs_layer_table(g):
    """``exact._layer_table`` from one plain BFS per vertex."""
    adj = ref_adjacency(g.n, g.edges)
    table = []
    for v in range(1, g.n + 1):
        dist = ref_distances(adj, v)
        layers = [0] * (max(dist.values()) + 1)
        for u, d in dist.items():
            layers[d] |= 1 << u
        own = sum(1 << u for u in range(1, g.n + 1) if g.color[u] == g.color[v])
        table.append((layers, own))
    return table


def test_layer_table_matches_bfs():
    graphs = list(prefix_cases()) + [build(*args) for build, args, *_ in BRUTE_WITNESS_GOLDENS]
    for g in graphs:
        assert exact._layer_table(g) == bfs_layer_table(g)
    assert exact._layer_table(path_graph([1])) == [([2], 2)]


def layers_pass(table, chosen, strict, future):
    """The layer test the rescue bound's -1 refines: each vertex's scan
    stops at the first layer meeting ``chosen`` or an own-color vertex of
    ``future``, and fails there under the variant's rule."""
    for layers, own in table:
        for layer in layers:
            hit = layer & chosen
            if hit or layer & own & future:
                break
        if hit & ~own if strict else not (hit | layer & future) & own:
            return False
    return True


def test_rescue_bound_is_sound():
    # every disjoint (chosen, future) pair, chosen nonempty, on the table
    # and on its reverse: -1 exactly where the layer test fails, and then
    # no completion within future passes; otherwise no completion that
    # passes has fewer vertices than the bound, and with future empty the
    # bound is the graph checker's verdict
    cases = cut = deep = 0
    for g in prefix_cases():
        table = exact._layer_table(g)
        vertices = range(1, g.n + 1)
        full = (2 << g.n) - 2
        for strict in (False, True):
            passes = {mask: exact._consistency_scan(
                g, [v for v in vertices if mask >> v & 1], strict)
                for mask in range(2, full + 1, 2)}
            for rows in (table, table[::-1]):
                for chosen in passes:
                    for future in submasks(full & ~chosen):
                        bound = exact._layers_bound(rows, chosen, strict, future)
                        assert (bound < 0) == (not layers_pass(rows, chosen, strict, future))
                        fewest = min((part.bit_count() for part in submasks(future)
                                      if passes[chosen | part]), default=None)
                        assert bound >= -1
                        if bound < 0:
                            assert fewest is None
                        elif fewest is not None:
                            assert bound <= fewest
                        if not future:
                            assert bound == (0 if passes[chosen] else -1)
                        cases += 1
                        cut += bound < 0
                        deep += bound >= 2
        assert sorted(table) == sorted(exact._layer_table(g))
    # 34,740 pairs per table order; 13,822 cut and 2,844 bounds of two or
    # more on each, where counting only one-vertex rescue sets gives 2,637
    assert cases == 2 * 34_740 and cut > 25_000 and deep > 5_600


def test_last_pick_mask_is_exact():
    # every disjoint (chosen, future) pair, the empty prefix included: the
    # mask holds exactly the vertices u of future whose subset chosen | u
    # passes, whatever the order of the table's rows
    emptied = kept = 0
    for g in prefix_cases():
        table = exact._layer_table(g)
        vertices = range(1, g.n + 1)
        full = (2 << g.n) - 2
        for strict in (False, True):
            passes = {mask: exact._consistency_scan(
                g, [v for v in vertices if mask >> v & 1], strict)
                for mask in range(2, full + 1, 2)}
            for rows in (table, table[::-1]):
                for chosen in range(0, full + 1, 2):
                    for future in submasks(full & ~chosen):
                        picks = exact._last_picks(rows, chosen, strict, future)
                        assert picks == sum(1 << u for u in vertices
                                            if future >> u & 1
                                            and passes[chosen | 1 << u])
                        emptied += future and not picks
                        kept += picks > 0
        assert sorted(table) == sorted(exact._layer_table(g))
    assert emptied > 10_000 and kept > 10_000


# (graph, solver, cap, most layer tests, most rows scanned, most layers
# visited)
WORK_GUARD_CASES = [
    (path_graph([1, 2] * 10), brute_force_mcs, 20, 230, 476, 1_480),
    (random_tree(20, 4, 1), brute_force_mcs, 20, 1_830, 9_480, 27_870),
    (random_tree(19, 2, 5), brute_force_mscs, 20, 495, 2_335, 5_265),
    (path_graph([1, 2] * 40), brute_force_mcs, 80, 3_560, 7_210, 24_410),
    (path_graph([1, 2] * 40), brute_force_mscs, 80, 88, 3_480, 10_340),
]


def test_layer_test_work_guard(monkeypatch):
    # rescue bounds and last-pick masks, vertex rows scanned and layers
    # visited, not time: on the 20-vertex alternating path, enumerating
    # every k-subset made 1,046,529 tests, restarting each size's walk from
    # the empty prefix 1,511, and testing each full tuple on its own 371.
    # Each bound leaves about 10% over today's count: 209, 1,664, 450, 3,239
    # and 80 tests (19, 19, 8, 79 and 1 of them masks), scanning 433, 8,619,
    # 2,123, 6,553 and 3,161 rows and visiting 1,344, 25,337, 4,785, 22,194
    # and 9,403 layers.  A scan that ran every row on to its first layer
    # meeting the prefix visited 104,433 and 88,561 layers on the two
    # 80-vertex paths.
    calls = [0]
    rows = [0]
    visited = [0]

    def counted(test):
        def count(*args):
            calls[0] += 1
            return test(*args)
        return count

    class CountedLayers(list):
        # a row's layer list, counting the scans over it and the layers
        # each scan visits
        def __iter__(self):
            rows[0] += 1
            for layer in super().__iter__():
                visited[0] += 1
                yield layer

    layer_table = exact._layer_table
    monkeypatch.setattr(exact, "_layers_bound", counted(exact._layers_bound))
    monkeypatch.setattr(exact, "_last_picks", counted(exact._last_picks))
    monkeypatch.setattr(exact, "_layer_table", lambda g: [
        (CountedLayers(layers), own) for layers, own in layer_table(g)])
    for g, solver, cap, most, most_rows, most_layers in WORK_GUARD_CASES:
        calls[0] = rows[0] = visited[0] = 0
        solver(g, cap=cap)
        assert calls[0] <= most
        assert rows[0] <= most_rows
        assert visited[0] <= most_layers


def test_no_layer_test_repeats_within_a_solve(monkeypatch):
    # a prefix with picks left is tested against the vertices after its
    # last pick whatever the size, a prefix cut by its bound carries the
    # bound to the next size, and a chain of last picks is masked only at
    # its own size, so each (chosen, future) pair needs each of the two
    # tests once per solve
    seen = set()
    repeats = []

    def once(test):
        def tested(table, chosen, strict, future):
            key = (test.__name__, chosen, future)
            if key in seen:
                repeats.append(key)
            seen.add(key)
            return test(table, chosen, strict, future)
        return tested

    monkeypatch.setattr(exact, "_layers_bound", once(exact._layers_bound))
    monkeypatch.setattr(exact, "_last_picks", once(exact._last_picks))
    solves = [(g, solver, cap) for g, solver, cap, *_ in WORK_GUARD_CASES]
    for build, args, *_ in BRUTE_WITNESS_GOLDENS:
        g = build(*args)
        solves += [(g, brute_force_mcs, 20), (g, brute_force_mscs, 20)]
    for g, solver, cap in solves:
        seen.clear()
        solver(g, cap=cap)
        assert len(seen) > 1 and not repeats, (g, solver.__name__, repeats[:3])


def test_brute_force_never_recurses():
    # the walk keeps its frames on a list: 1,100 picks deep under a
    # 1,000-frame limit, which it leaves alone
    caller = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cert = brute_force_mscs(path_graph([1, 2] * 550), cap=1100)
        after = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(caller)
    assert cert.witness == tuple(range(1, 1101))
    assert after == 1000


def test_witness_rechecked_once_by_the_graph_checker(monkeypatch):
    scan = exact._consistency_scan
    calls = []

    def counted(g, members, strict):
        calls.append(tuple(members))
        return scan(g, members, strict)

    monkeypatch.setattr(exact, "_consistency_scan", counted)
    g = random_connected_graph(9, 3, 7)
    witness = brute_force_mcs(g).witness
    assert calls == [witness]
    monkeypatch.setattr(exact, "_consistency_scan", lambda g, members, strict: False)
    with pytest.raises(AssertionError, match="disagree"):
        brute_force_mscs(g)


def test_reference_checker_agrees():
    for seed in range(20):
        n = 2 + seed % 6
        g = random_connected_graph(n, 1 + seed % 3, 200 + seed)
        colors = {v: g.color[v] for v in range(1, n + 1)}
        subset = {1 + seed % n, n}
        assert is_consistent(g, subset) == ref_is_consistent(
            n, colors, g.edges, subset)
        assert is_strict_consistent(g, subset) == ref_is_consistent(
            n, colors, g.edges, subset, strict=True)


# --------------------------------------------------------------------------
# structural invariants

def test_mscs_at_least_mcs_and_hits_blocks():
    for seed in range(25):
        g = random_connected_graph(2 + seed % 8, 1 + seed % 3, 300 + seed)
        mcs = brute_force_mcs(g)
        mscs = brute_force_mscs(g)
        assert mscs.size >= mcs.size
        witness = set(mscs.witness)
        for part in blocks(g):
            assert witness & part


def test_determinism():
    g = random_connected_graph(9, 3, 42)
    assert brute_force_mcs(g) == brute_force_mcs(g)
    assert brute_force_mscs(g) == brute_force_mscs(g)


# --------------------------------------------------------------------------
# caps and preconditions

def test_vertex_cap():
    big = path_graph([1] * 21)
    with pytest.raises(PreconditionError):
        brute_force_mcs(big)
    with pytest.raises(PreconditionError):
        brute_force_mscs(big)
    # a raised cap admits the instance (monochromatic, so it ends instantly)
    assert brute_force_mcs(big, cap=25).size == 1


def test_disconnected_rejected():
    disc = ColoredGraph(3, 1, [(1, 2)], {1: 1, 2: 1, 3: 1})
    with pytest.raises(PreconditionError):
        brute_force_mcs(disc)
    with pytest.raises(PreconditionError):
        brute_force_mscs(disc)


# --------------------------------------------------------------------------
# classical-problem oracles

def test_min_dominating_set():
    p3 = path_graph([1, 1, 1])
    assert min_dominating_set(p3) == (1, (2,))
    k4 = complete_graph(4)
    assert min_dominating_set(k4)[0] == 1
    for seed in range(15):
        n = 2 + seed % 6
        g = random_connected_graph(n, 1, 400 + seed)
        size, witness = min_dominating_set(g)
        assert witness == ref_min_dominating(n, g.edges)
        assert size == len(witness)


def test_min_vertex_cover():
    assert min_vertex_cover(complete_graph(4))[0] == 3
    edgeless = ColoredGraph(1, 1, [], {1: 1})
    assert min_vertex_cover(edgeless) == (0, ())
    for seed in range(15):
        n = 2 + seed % 6
        g = random_connected_graph(n, 1, 500 + seed)
        size, witness = min_vertex_cover(g)
        assert witness == ref_min_vertex_cover(n, g.edges)
        assert size == len(witness)


def test_min_set_cover():
    sc = SetCoverInstance(4, (frozenset({1, 2, 3, 4}), frozenset({1})))
    assert min_set_cover(sc) == (1, (1,))
    nested = SetCoverInstance(4, (frozenset({1, 2, 3}), frozenset({1, 3}),
                               frozenset({4})))
    size, witness = min_set_cover(nested)
    assert size == 2
    assert witness == ref_min_set_cover(4, nested.sets)


def test_oracle_caps():
    big = path_graph([1] * 21)
    with pytest.raises(PreconditionError):
        min_dominating_set(big)
    with pytest.raises(PreconditionError):
        min_vertex_cover(big)
    wide = SetCoverInstance(1, tuple(frozenset({1}) for _ in range(21)))
    with pytest.raises(PreconditionError):
        min_set_cover(wide)
