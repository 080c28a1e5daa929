import pytest

from consistent_subset import (ColoredGraph, PreconditionError,
                               SetCoverInstance, blocks, brute_force_mcs,
                               brute_force_mscs, is_consistent,
                               is_strict_consistent, random_connected_graph)
from consistent_subset.exact import (min_dominating_set, min_set_cover,
                                     min_vertex_cover)

from helpers import (RRBB, complete_graph, path_graph, ref_is_consistent,
                     ref_min_dominating, ref_min_set_cover,
                     ref_min_vertex_cover, ref_minimum_subset, star_graph)


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

def test_matches_unpruned_reference_enumeration():
    for seed in range(30):
        n = 2 + seed % 6
        g = random_connected_graph(n, 1 + seed % 3, 100 + seed)
        colors = {v: g.color[v] for v in range(1, n + 1)}
        for strict, solver in ((False, brute_force_mcs), (True, brute_force_mscs)):
            expected = ref_minimum_subset(n, colors, g.edges, strict)
            got = solver(g)
            assert got.witness == expected
            assert got.size == len(expected)


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
