import pytest
from hypothesis import given, strategies as st

from consistent_subset import (SplitMix64, random_connected_graph,
                               random_set_cover, random_tree, random_two_sat)


def _reference_splitmix(seed, count):
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_splitmix_matches_reference(seed):
    rng = SplitMix64(seed)
    assert [rng.next() for _ in range(5)] == _reference_splitmix(seed, 5)


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=1000))
def test_splitmix_bounded_draws(seed, bound):
    rng = SplitMix64(seed)
    for _ in range(10):
        assert 0 <= rng.below(bound) < bound
    assert SplitMix64(seed).flip() in (0, 1)


def test_splitmix_negative_seed_wraps():
    assert SplitMix64(-1).next() == SplitMix64(2 ** 64 - 1).next()


# --------------------------------------------------------------------------
# trees

def test_random_tree_shape():
    for seed in range(40):
        n = 1 + seed % 15
        c = 1 + seed % 4
        g = random_tree(n, c, seed)
        assert g.n == n and g.m == n - 1
        assert g.is_tree
        assert all(1 <= g.color[v] <= c for v in range(1, n + 1))


def test_random_tree_deterministic():
    assert random_tree(12, 3, 5) == random_tree(12, 3, 5)
    assert random_tree(12, 3, 5) != random_tree(12, 3, 6)


def test_random_tree_tiny():
    assert random_tree(1, 1, 0).n == 1
    g = random_tree(2, 1, 0)
    assert g.edges == frozenset({(1, 2)})


def test_random_tree_hits_every_three_vertex_shape():
    # both labeled paths-with-distinct-centers must eventually appear
    centers = set()
    for seed in range(60):
        g = random_tree(3, 1, seed)
        center = next(v for v in (1, 2, 3) if g.degree(v) == 2)
        centers.add(center)
    assert centers == {1, 2, 3}


# --------------------------------------------------------------------------
# graphs, set covers, formulas

def test_random_connected_graph_shape():
    for seed in range(30):
        n = 1 + seed % 10
        g = random_connected_graph(n, 2, seed)
        assert g.is_connected
        assert g.m >= n - 1
    assert random_connected_graph(8, 2, 3) == random_connected_graph(8, 2, 3)


def test_random_set_cover_valid():
    for seed in range(25):
        n = 1 + seed % 6
        m = 1 + seed % 5
        sc = random_set_cover(n, m, seed)
        assert sc.n == n and sc.m == m
        assert set().union(*sc.sets) == set(range(1, n + 1))
    assert random_set_cover(5, 4, 9) == random_set_cover(5, 4, 9)


def test_random_two_sat_shape():
    for seed in range(25):
        n = 1 + seed % 4
        m = 1 + seed % 6
        f = random_two_sat(n, m, seed)
        assert f.n == n and f.m == m
        for clause in f.clauses:
            assert len(clause) == 2
            for var, positive in clause:
                assert 1 <= var <= n
                assert isinstance(positive, bool)
    assert random_two_sat(3, 4, 2) == random_two_sat(3, 4, 2)


@pytest.mark.parametrize("make,args,name", [
    (random_tree, (0, 1), "n"), (random_tree, (3, 0), "c"),
    (random_connected_graph, (0, 1), "n"), (random_connected_graph, (3, 0), "c"),
    (random_set_cover, (0, 2), "n"), (random_set_cover, (3, 0), "m"),
    (random_two_sat, (0, 2), "n"), (random_two_sat, (2, -1), "m"),
])
def test_generators_reject_bad_counts(make, args, name):
    # these used to raise IndexError or ZeroDivisionError mid-draw, or (a
    # negative clause count) return an empty formula
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        make(*args, 7)
