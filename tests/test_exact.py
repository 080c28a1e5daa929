import itertools

import pytest

from consistent_subset import (ColoredGraph, PreconditionError,
                               SetCoverInstance, blocks, brute_force_mcs,
                               brute_force_mscs, exact, is_consistent,
                               is_strict_consistent, random_connected_graph,
                               random_tree)
from consistent_subset.exact import (min_dominating_set, min_set_cover,
                                     min_vertex_cover)

from helpers import (RRBB, caterpillar, complete_graph, cycle_graph,
                     path_graph, ref_is_consistent, ref_min_dominating,
                     ref_min_set_cover, ref_min_vertex_cover,
                     ref_minimum_subset, runs_path, spider, star_graph)


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
        for part in blocks(g).partition:
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
