import hashlib
import itertools
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest

from consistent_subset import (ColoredGraph, Interval, ParseError,
                               PreconditionError, SetCoverInstance,
                               TwoSatFormula, assignment_certificate, blocks,
                               brute_force_mcs, brute_force_mscs,
                               cubic_vc_to_intervals, dominating_set_to_mcs,
                               ds_mscs_certificate, format_graph,
                               format_intervals, format_metadata,
                               format_set_cover, interval_cover_certificate,
                               intervals_to_graph, is_consistent,
                               is_strict_consistent, max2sat_to_tree,
                               parse_cnf2, parse_graph, parse_intervals,
                               parse_set_cover, planar_ds_to_mscs,
                               random_connected_graph, random_set_cover,
                               set_cover_to_mscs)
from consistent_subset.exact import min_dominating_set, min_set_cover, min_vertex_cover

from helpers import (complete_graph, cycle_graph, path_graph,
                     predicted_interval_edges)

COVER43 = SetCoverInstance(4, (frozenset({1, 2, 3}), frozenset({1, 3}),
                            frozenset({4})))


# --------------------------------------------------------------------------
# source-problem parsers

def test_parse_cnf2_golden():
    f = parse_cnf2("c remark\np cnf 2 2\n1 -2 0\n-1 2 0\n")
    assert f.n == 2 and f.m == 2
    assert f.clauses == (((1, True), (2, False)), ((1, False), (2, True)))


def test_two_sat_satisfied_count():
    f = TwoSatFormula(2, (((1, True), (2, False)), ((1, False), (2, False))))
    assert f.satisfied_count({1: True, 2: False}) == 2
    assert f.satisfied_count({1: True, 2: True}) == 1
    assert f.satisfied_count({1: False, 2: True}) == 1


@pytest.mark.parametrize("text, line, fragment", [
    ("", 1, "missing 'p cnf' header"),
    ("1 2 0\n", 1, "before 'p cnf' header"),
    ("p cnf 2 1\np cnf 2 1\n1 2 0\n", 2, "duplicate header"),
    ("p sat 2 1\n1 2 0\n", 1, "expected header"),
    ("p cnf x 1\n1 2 0\n", 1, "header fields must be integers"),
    ("p cnf 0 1\n1 2 0\n", 1, "malformed header"),
    ("p cnf 2 1\n1 2\n", 2, "end with 0"),
    ("p cnf 2 1\n1 3 0\n", 2, "literal 3 out of range"),
    ("p cnf 2 1\n1 2 3 0\n", 2, "exactly 2 literals, got 3"),
    ("p cnf 2 1\n1 0\n", 2, "exactly 2 literals"),
    ("p cnf 2 1\n1 x 0\n", 2, "integers"),
    ("p cnf 2 2\n1 2 0\n", 2, "expected 2 clauses, found 1"),
    ("p cnf 2 1\n1 2 0\n1 2 0\n", 3, "more than 1 clause"),
])
def test_parse_cnf2_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_cnf2(text)
    assert exc.value.line == line and fragment in str(exc.value)


@pytest.mark.parametrize("reader, text, line, message", [
    (parse_cnf2, "p cnf 2\n1 2 0\n", 1, "expected header 'p cnf <vars> <clauses>'"),
    (parse_cnf2, "p cnf 0 1\n1 2 0\n", 1, "malformed header counts vars=0 clauses=1"),
    (parse_cnf2, "p cnf 2 1\n1 x 0\n", 2, "clause literals must be integers"),
    (parse_intervals, "c nothing\n\n", 2, "no interval lines found"),
    (parse_intervals, "", 1, "no interval lines found"),
])
def test_reader_error_messages(reader, text, line, message):
    with pytest.raises(ParseError) as exc:
        reader(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("n, clauses, message", [
    (0, (), "formula needs at least one variable"),
    (1, (((1, True), (1, False), (1, True)),), "every clause must have exactly two literals"),
    (1, (((1, 1), (1, False)),), "literal polarity must be a bool"),
])
def test_two_sat_formula_validation(n, clauses, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TwoSatFormula(n, clauses)


def test_min_set_cover_refuses_sets_that_miss_an_element():
    with pytest.raises(PreconditionError,
                       match="^the union of the sets does not cover the universe$"):
        min_set_cover(SimpleNamespace(n=2, sets=[{1}]))


def test_parse_set_cover_golden():
    sc = parse_set_cover("p sc 4 3\ns 1 1 2 3\ns 2 1 3\ns 3 4\n")
    assert sc == COVER43


def test_set_cover_round_trip():
    assert parse_set_cover(format_set_cover(COVER43)) == COVER43
    assert format_set_cover(COVER43) == "p sc 4 3\ns 1 1 2 3\ns 2 1 3\ns 3 4\n"


@pytest.mark.parametrize("text, line, fragment", [
    ("", 1, "missing 'p sc' header"),
    ("s 1 1\n", 1, "before 'p sc' header"),
    ("p sc 1 1\nx 1 1\n", 2, "unrecognized line type"),
    ("p sc 1 1\ns 2 1\n", 2, "set index 2 out of range"),
    ("p sc 1 1\ns 1 2\n", 2, "element 2 out of range"),
    ("p sc 1 2\ns 1 1\ns 1 1\n", 3, "duplicate set line"),
    ("p sc 2 1\ns 1 1\n", 2, "cover the whole universe"),
    ("p sc 1 2\ns 1 1\n", 2, "missing set line for index 2"),
    ("p sc 1 1\np sc 1 1\ns 1 1\n", 2, "duplicate header"),
    ("p sc 1\ns 1 1\n", 1, "expected header 'p sc <n> <m>'"),
    ("p cnf 1 1\ns 1 1\n", 1, "expected header 'p sc <n> <m>'"),
    ("p sc x 1\ns 1 1\n", 1, "header fields must be integers"),
    ("p sc 0 1\ns 1\n", 1, "malformed header counts n=0 m=1"),
    ("p sc 1 0\n", 1, "malformed header counts n=1 m=0"),
    ("p sc 1 1\ns 1 x\n", 2, "set line fields must be integers"),
    ("p sc 1 1\ns\n", 2, "set line must name a set index"),
])
def test_parse_set_cover_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_set_cover(text)
    assert exc.value.line == line and fragment in str(exc.value)


def test_set_cover_instance_validation():
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset({1}),))          # uncovered element
    with pytest.raises(ValueError):
        SetCoverInstance(1, (frozenset({1, 2}),))       # out of range
    with pytest.raises(ValueError):
        SetCoverInstance(1, ())
    with pytest.raises(ValueError, match="^universe must be nonempty$"):
        SetCoverInstance(0, (frozenset(),))


def test_set_cover_instance_rejects_a_non_int_element():
    # True would cover element 1, then be written out as ``s 1 True 2``
    with pytest.raises(ValueError, match="element True out of range"):
        SetCoverInstance(2, (frozenset({True, 2}),))


def test_two_sat_formula_rejects_a_non_int_variable():
    with pytest.raises(ValueError, match="variable 1.0 out of range"):
        TwoSatFormula(1, (((1.0, True), (1, False)),))


@pytest.mark.parametrize("n", [True, 1.0])
def test_set_cover_instance_rejects_a_non_int_universe_size(n):
    # True would be written out as ``p sc True 1``
    with pytest.raises(ValueError, match=f"universe size must be an integer, got {n!r}"):
        SetCoverInstance(n, (frozenset({1}),))


@pytest.mark.parametrize("n", [True, 1.0])
def test_two_sat_formula_rejects_a_non_int_variable_count(n):
    # True would be recorded as ``n=True`` in a reduction's sidecar
    with pytest.raises(ValueError, match=f"variable count must be an integer, got {n!r}"):
        TwoSatFormula(n, (((1, True), (1, False)),))


# --------------------------------------------------------------------------
# apex construction

def test_apex_structure():
    g = path_graph([1, 1, 1])
    h, meta = dominating_set_to_mcs(g)
    assert h.n == 4 and h.c == 2
    assert h.color == (0, 1, 1, 1, 2)
    assert all((v, 4) in h.edges for v in (1, 2, 3))
    assert meta.reduction == "ds-mcs"
    assert meta.formula == "k+1"
    assert meta.target_size(3) == 4
    assert meta.roles == (("x", 4),)


def test_apex_equivalence():
    for g in (path_graph([1, 1, 1]), complete_graph(4),
              cycle_graph([1, 1, 1, 1, 1])):
        h, meta = dominating_set_to_mcs(g)
        gamma = min_dominating_set(g)[0]
        assert brute_force_mcs(h, cap=h.n).size == meta.target_size(gamma)


def test_apex_requires_connected():
    disc = ColoredGraph(2, 1, [], {1: 1, 2: 1})
    with pytest.raises(PreconditionError):
        dominating_set_to_mcs(disc)


def test_apex_round_trip():
    h, _ = dominating_set_to_mcs(path_graph([1, 2, 1]))
    assert parse_graph(format_graph(h)) == h


# --------------------------------------------------------------------------
# formula-to-tree construction

def test_tree_reduction_shape():
    f = TwoSatFormula(2, (((1, True), (2, False)),))
    tree, layout, meta = max2sat_to_tree(f, M=8)
    assert tree.n == 2 * (2 * 8 + 8) + 21 * 1 + 3 == 72
    assert tree.is_tree
    assert tree.c == 2 * 2 + 2 * 8 + 1 + 1 == 22
    assert layout.center == (70, 71, 72)
    assert layout.pos_path[(1, 1)] == 1
    assert layout.neg_path[(1, 1)] == 5
    assert layout.pos_stab[(1, 1)] == 9
    assert layout.left_path[(1, 1)] == 49
    assert layout.right_path[(1, 1)] == 56
    assert layout.clause_path[(1, 1)] == 63
    # hook-up edges: literal paths to the clause connector and the center
    assert (49, 64) in tree.edges      # first-literal path meets connector
    assert (56, 68) in tree.edges      # second-literal path meets connector
    assert (66, 70) in tree.edges      # connector midpoint meets center
    assert (1, 70) in tree.edges and (5, 70) in tree.edges
    # stabilizer pairs share a color and hang off the path heads
    assert tree.color[9] == tree.color[layout.neg_stab[(1, 1)]]
    assert (1, 9) in tree.edges
    assert parse_graph(format_graph(tree)) == tree


def test_tree_reduction_size_formula():
    f3 = TwoSatFormula(3, (((1, True), (2, True)), ((2, False), (3, True)),
                           ((1, False), (3, False)), ((1, True), (3, True))))
    _, _, meta = max2sat_to_tree(f3, M=27)
    assert meta.formula == "N(k)=n*(M+2)+2k+3(m-k)+1"
    assert meta.target_size(4) == 3 * 29 + 8 + 0 + 1 == 96
    assert meta.params == (("n", 3), ("m", 4), ("M", 27))


def test_tree_reduction_default_and_bad_m():
    f = TwoSatFormula(3, (((1, True), (2, True)),))
    _, layout, _ = max2sat_to_tree(f)
    assert layout.M == 27
    with pytest.raises(PreconditionError):
        max2sat_to_tree(f, M=0)


@pytest.mark.parametrize("M", [True, 2.0])
def test_tree_reduction_rejects_a_non_int_m(M):
    # True would be written out as ``M=True`` in the sidecar, and 2.0 would
    # reach ``range`` after a warning
    f = TwoSatFormula(1, (((1, True), (1, False)),))
    with pytest.raises(PreconditionError, match=f"^M must be an integer, got {M!r}$"):
        max2sat_to_tree(f, M=M)


def test_tree_reduction_small_m_warns():
    f = TwoSatFormula(1, (((1, True), (1, False)),))
    with pytest.warns(UserWarning):
        max2sat_to_tree(f, M=1)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        max2sat_to_tree(f, M=20)    # 1*22+2+1=25 < 2*20: no warning


def test_assignment_certificates():
    f = TwoSatFormula(2, (((1, True), (2, False)), ((2, True), (1, True))))
    with pytest.warns(UserWarning):     # M=8 is knowingly below the threshold
        tree, layout, meta = max2sat_to_tree(f, M=8)
    for bits in itertools.product((False, True), repeat=2):
        assignment = {1: bits[0], 2: bits[1]}
        k = f.satisfied_count(assignment)
        cert = assignment_certificate(layout, f, assignment)
        assert cert.size == meta.target_size(k)
        assert is_consistent(tree, cert.witness)
        # each variable gadget contributes exactly M+2 vertices
        chosen = set(cert.witness)
        for i in (1, 2):
            gadget = ({layout.pos_path[(i, a)] for a in range(1, 5)}
                      | {layout.neg_path[(i, a)] for a in range(1, 5)}
                      | {layout.pos_stab[(i, j)] for j in range(1, 9)}
                      | {layout.neg_stab[(i, j)] for j in range(1, 9)})
            assert len(chosen & gadget) == layout.M + 2


def test_assignment_certificate_needs_full_assignment():
    f = TwoSatFormula(2, (((1, True), (2, False)),))
    _, layout, _ = max2sat_to_tree(f, M=8)
    with pytest.raises(PreconditionError):
        assignment_certificate(layout, f, {1: True})


def test_all_false_assignment_consistent():
    f = TwoSatFormula(2, (((1, True), (2, True)), ((1, True), (2, False))))
    with pytest.warns(UserWarning):     # M=8 is knowingly below the threshold
        tree, layout, _ = max2sat_to_tree(f, M=8)
    cert = assignment_certificate(layout, f, {1: False, 2: False})
    assert is_consistent(tree, cert.witness)


def _optimum_of_tree_reduction(f):
    """``(brute-force optimum, N(k*))`` of ``f``'s tree at the smallest M
    that draws no warning, M = 2n + 2m + 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree, _, meta = max2sat_to_tree(f, M=2 * f.n + 2 * f.m + 2)
    best = max(f.satisfied_count(dict(enumerate(bits, start=1)))
               for bits in itertools.product((False, True), repeat=f.n))
    return brute_force_mcs(tree, cap=tree.n).size, meta.target_size(best)


def _small_formulas():
    """Every formula with one variable and m <= 2 or two variables and
    m <= 1, and every pair of different clauses that each join both of two
    variables; minus those holding both (x v x) and (-x v -x)."""
    for n, m, distinct in ((1, 0, False), (1, 1, False), (1, 2, False),
                           (2, 0, False), (2, 1, False), (2, 2, True)):
        literals = [(v, p) for v in range(1, n + 1) for p in (True, False)]
        clauses = [c for c in itertools.combinations_with_replacement(literals, 2)
                   if not distinct or c[0][0] != c[1][0]]
        pick = (itertools.combinations if distinct
                else itertools.combinations_with_replacement)
        for chosen in pick(clauses, m):
            if not any(((v, True), (v, True)) in chosen
                       and ((v, False), (v, False)) in chosen for v in range(1, n + 1)):
                yield TwoSatFormula(n, chosen)


def test_tree_reduction_optimum_is_n_of_k():
    formulas = list(_small_formulas())
    assert len(formulas) == 9 + 11 + 6
    for f in formulas:
        size, target = _optimum_of_tree_reduction(f)
        assert size == target, f.clauses


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 2sat-tree sidecar's N(k) claim (README, gen): "
                          "N(k) is not the optimum of a formula holding both "
                          "(x v x) and (-x v -x)")
def test_tree_reduction_optimum_with_opposite_unit_clauses():
    f = TwoSatFormula(1, (((1, True), (1, True)), ((1, False), (1, False))))
    size, target = _optimum_of_tree_reduction(f)
    assert size == target       # N(1) = 16 at M = 8; brute force finds 15


# --------------------------------------------------------------------------
# interval construction

def test_intervals_require_cubic():
    with pytest.raises(PreconditionError):
        cubic_vc_to_intervals(path_graph([1, 1]))
    with pytest.raises(PreconditionError):
        cubic_vc_to_intervals(complete_graph(4), p=0)


@pytest.mark.parametrize("p, q, bad", [(True, 1, "p"), (1.0, 1, "p"),
                                       (1, True, "q"), (1, 2.0, "q")])
def test_intervals_reject_non_int_p_and_q(p, q, bad):
    # True would be written out as ``p=True``, and 1.0 fails in Fraction
    value = p if bad == "p" else q
    with pytest.raises(PreconditionError,
                       match=f"^{bad} must be an integer, got {value!r}$"):
        cubic_vc_to_intervals(complete_graph(4), p=p, q=q)


def test_interval_defaults_on_k4():
    inst, meta = cubic_vc_to_intervals(complete_graph(4))
    assert (inst.p, inst.q) == (64, 256)
    assert len(inst.intervals) == 2 * 6 + 4 * 64 + 4 * 256 + 1 == 1293
    assert len(inst.mediums) == 12
    assert meta.formula == "K(k)=k*(3+p)"
    assert meta.target_size(3) == 201
    large = inst.intervals[inst.large_id - 1]
    assert (large.lo, large.hi) == (Fraction(1), Fraction(10))
    assert large.color == 1


def test_interval_geometry():
    inst, _ = cubic_vc_to_intervals(complete_graph(4), p=2, q=3)
    by_id = {iv.id: iv for iv in inst.intervals}
    for e, v, iid in inst.mediums:
        assert (by_id[iid].lo, by_id[iid].hi) == (Fraction(2 * v), Fraction(2 * v + 1))
    for v, ids in inst.gadget_smalls.items():
        for iid in ids:
            iv = by_id[iid]
            assert Fraction(2 * v) < iv.lo < iv.hi < Fraction(2 * v + 1)
        for a, b in itertools.combinations(ids, 2):    # pairwise disjoint
            assert by_id[a].hi < by_id[b].lo or by_id[b].hi < by_id[a].lo
    for gap, ids in inst.gap_smalls.items():
        for iid in ids:
            iv = by_id[iid]
            assert Fraction(2 * gap + 1) < iv.lo < iv.hi < Fraction(2 * gap + 2)


def test_overlap_graph_basics():
    a = Interval(1, 1, Fraction(0), Fraction(1))
    b = Interval(2, 2, Fraction(2), Fraction(3))
    nested = Interval(2, 2, Fraction(0), Fraction(5))
    touching = Interval(2, 2, Fraction(1), Fraction(2))
    assert intervals_to_graph((a, b)).m == 0
    assert intervals_to_graph((a, nested)).m == 1
    assert intervals_to_graph((a, touching)).m == 1   # closed intervals touch
    with pytest.raises(PreconditionError):
        intervals_to_graph((a, Interval(7, 1, Fraction(0), Fraction(1))))


def test_predicted_adjacency_matches_sweep():
    for p, q in ((1, 1), (2, 3)):
        inst, _ = cubic_vc_to_intervals(complete_graph(4), p=p, q=q)
        derived = intervals_to_graph(inst)
        assert predicted_interval_edges(inst) == derived.edges


def test_interval_cover_certificate():
    inst, meta = cubic_vc_to_intervals(complete_graph(4), p=1, q=1)
    derived = intervals_to_graph(inst)
    size, cover = min_vertex_cover(complete_graph(4))
    cert = interval_cover_certificate(inst, cover)
    assert cert.size == len(cover) * 4 == meta.target_size(size)
    assert is_consistent(derived, cert.witness)
    with pytest.raises(PreconditionError):
        interval_cover_certificate(inst, (1,))          # misses edges
    with pytest.raises(PreconditionError):
        interval_cover_certificate(inst, (1, 2, 9))     # out of range


def test_interval_cover_certificate_rejects_a_non_int_vertex():
    inst, _ = cubic_vc_to_intervals(complete_graph(4), p=1, q=1)
    with pytest.raises(PreconditionError, match="cover vertex 1.0 not in"):
        interval_cover_certificate(inst, [1.0, 2, 3])


def _cubic_graphs():
    """K4, K3,3, the prism, the 3-cube and the Petersen graph."""
    k33 = [(u, w) for u in (1, 2, 3) for w in (4, 5, 6)]
    prism = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    cube = [(a + 1, b + 1) for a, b in itertools.combinations(range(8), 2)
            if bin(a ^ b).count("1") == 1]
    petersen = ([(i, i % 5 + 1) for i in range(1, 6)]
                + [(i, i + 5) for i in range(1, 6)]
                + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)])
    yield complete_graph(4)
    for n, edges in ((6, k33), (6, prism), (8, cube), (10, petersen)):
        yield ColoredGraph(n, 1, edges, [1] * n)


def test_interval_reduction_optimum_is_k_times_3_plus_p():
    for g in _cubic_graphs():
        assert all(g.degree(v) == 3 for v in range(1, g.n + 1))
        best = min_vertex_cover(g)[0]
        for p, q in itertools.product((1, 2), repeat=2):
            inst, meta = cubic_vc_to_intervals(g, p=p, q=q)
            derived = intervals_to_graph(inst)
            optimum = brute_force_mcs(derived, cap=derived.n).size
            assert optimum == meta.target_size(best), (g.n, p, q)


def test_interval_file_round_trip():
    inst, _ = cubic_vc_to_intervals(complete_graph(4), p=1, q=2)
    text = format_intervals(inst)
    assert parse_intervals(text) == inst.intervals
    assert text.startswith("i 1 ")


@pytest.mark.parametrize("text, fragment", [
    ("", "no interval lines"),
    ("x 1 1 0/1 1/1\n", "expected 'i"),
    ("i 1 1 0/1\n", "expected 'i"),
    ("i 1 1 a/1 1/1\n", "malformed interval fields"),
    ("i 0 1 0/1 1/1\n", "must be positive"),
    ("i 1 1 0/1 1/1\ni 1 1 0/1 1/1\n", "duplicate interval id"),
    ("i 1 1 2/1 1/1\n", "hi < lo"),
])
def test_parse_intervals_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_intervals(text)
    assert fragment in str(exc.value)


# --------------------------------------------------------------------------
# set-cover construction

def test_set_cover_graph_structure():
    g, layout, meta = set_cover_to_mscs(COVER43)
    assert (g.n, g.m, g.c) == (9, 14, 2)
    assert g.color[layout.r1] == g.color[layout.r2] == 2
    assert g.degree(layout.r2) == 1
    for a, b in itertools.combinations(sorted(layout.sets.values()), 2):
        assert (a, b) in g.edges
    assert (1, layout.sets[1]) in g.edges       # element 1 in set 1
    assert (4, layout.sets[1]) not in g.edges
    assert meta.target_size(2) == 3
    assert parse_graph(format_graph(g)) == g


def test_set_cover_equivalence():
    g, _, meta = set_cover_to_mscs(COVER43)
    assert brute_force_mscs(g, cap=g.n).size == 3
    for seed in range(6):
        sc = random_set_cover(1 + seed % 4, 1 + seed % 3, 600 + seed)
        g, _, meta = set_cover_to_mscs(sc)
        best = min_set_cover(sc)[0]
        assert brute_force_mscs(g, cap=g.n).size == meta.target_size(best)


# --------------------------------------------------------------------------
# pendant-path construction

def test_pendant_structure():
    g, layout, meta = planar_ds_to_mscs(path_graph([1, 1]))
    assert (g.n, g.m) == (10, 9)
    assert layout.r1[1] == 3 and layout.b3[2] == 10
    assert g.color[1] == g.color[layout.r1[1]] == 1
    assert g.color[layout.b1[1]] == g.color[layout.b3[2]] == 2
    assert (1, 3) in g.edges and (3, 4) in g.edges
    assert meta.formula == "n+k"
    assert meta.target_size(1) == 3
    assert parse_graph(format_graph(g)) == g


def test_pendant_equivalence():
    for src in (path_graph([1, 1]), path_graph([1, 1, 1])):
        g, _, meta = planar_ds_to_mscs(src)
        gamma = min_dominating_set(src)[0]
        assert brute_force_mscs(g, cap=g.n).size == meta.target_size(gamma)


def test_pendant_requires_connected():
    disc = ColoredGraph(2, 1, [], {1: 1, 2: 1})
    with pytest.raises(PreconditionError):
        planar_ds_to_mscs(disc)


def test_pendant_certificates():
    src = path_graph([1, 1])
    g, layout, _ = planar_ds_to_mscs(src)
    cert = ds_mscs_certificate(layout, src, {1})
    assert cert.size == 3
    assert cert.witness == (1, layout.b2[1], layout.b3[2])
    assert is_strict_consistent(g, cert.witness)
    everyone = ds_mscs_certificate(layout, src, {1, 2})
    assert everyone.size == 4    # 2n with n=2
    assert is_strict_consistent(g, everyone.witness)

    p3 = path_graph([1, 1, 1])
    g3, layout3, _ = planar_ds_to_mscs(p3)
    mid = ds_mscs_certificate(layout3, p3, {2})
    assert mid.size == 4
    assert is_strict_consistent(g3, mid.witness)

    with pytest.raises(PreconditionError):
        ds_mscs_certificate(layout, src, set())
    with pytest.raises(PreconditionError):
        ds_mscs_certificate(layout, src, {9})
    star_not_dom = ColoredGraph(3, 1, [(1, 2), (2, 3)], {v: 1 for v in (1, 2, 3)})
    g4, layout4, _ = planar_ds_to_mscs(star_not_dom)
    with pytest.raises(PreconditionError):
        ds_mscs_certificate(layout4, star_not_dom, {1})   # vertex 3 undominated


def test_ds_mscs_certificate_rejects_a_non_int_vertex():
    p3 = path_graph([1, 1, 1])
    _, layout, _ = planar_ds_to_mscs(p3)
    for bad in ([True, 3], [2.0]):      # True would be taken as vertex 1
        with pytest.raises(PreconditionError, match="not in the source graph"):
            ds_mscs_certificate(layout, p3, bad)


# --------------------------------------------------------------------------
# metadata sidecar

def test_metadata_sidecar_golden():
    _, meta = dominating_set_to_mcs(path_graph([1, 1, 1]))
    assert format_metadata(meta) == (
        "reduction=ds-mcs\nn=3\nm=2\nformula=k+1\nrole x 4\n")


def test_metadata_roles_cover_layout():
    _, layout, meta = set_cover_to_mscs(COVER43)
    names = dict(meta.roles)
    assert names["x1"] == 1
    assert names["y3"] == 7
    assert names["r1"] == 8 and names["r2"] == 9


# --------------------------------------------------------------------------
# byte goldens of the generated files

# sha256 of the files ``consist gen`` writes (``format_graph`` and
# ``format_metadata``, plus ``format_intervals`` for vc-intervals), one small
# input per reduction; any change to an id, colour, edge or role fails here
FILE_GOLDENS = {
    "ds-mcs": [
        "99bdfc39fe33ebb9c40632b7ff4a2e5908b850228c793428456b2b268bfaa47b",
        "2a01f32478b7f2e45f9af87980291a55c451e93e46a8b051da37bb25d9413370"],
    "2sat-tree": [
        "c27a9c35aa4f641defd9df37dc0938f51614d297c270e8d11dcb15c703bcbc9d",
        "8ff784f6e7d5d441520d47c9be7d734b7313a69e2962030cabc53d319372660c"],
    "vc-intervals": [
        "680a02ec01538d1c8458a3428c14a7a46701daf3f75ea3dc8b2576331d9526d0",
        "15e6423ac4142ae3423e918ee6622ad36917c6b29fc3bae67192a2de8efc4299",
        "668fc732da3ae1cc90c987c3a7ea2fe6317f31f05f0af9fe3857518d3390a9f3"],
    "sc-mscs": [
        "6b62b25662d2d717778290a68667fdb0d2a59438db7b460849a6cf200c333157",
        "906b289186b8b67e65c8ebba2fd88bd70f6278a508c17e55e69d8948621bcca9"],
    "ds-mscs": [
        "46fa72e90fc8b42ac89243079d93e016c515899ea893723741791c5b2bb161fd",
        "31ce87bea7f9f8600e461b3155e8f8d6697a1b6a82399d9e7092c1fc58c943fe"],
}


def test_generated_file_goldens():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    src = random_connected_graph(6, 1, 11)
    f = TwoSatFormula(2, (((1, True), (2, False)), ((2, True), (1, True))))
    inst, vc_meta = cubic_vc_to_intervals(complete_graph(4), p=2, q=3)
    built = {
        "ds-mcs": dominating_set_to_mcs(src),
        "2sat-tree": max2sat_to_tree(f, M=10)[::2],
        "vc-intervals": (intervals_to_graph(inst), vc_meta),
        "sc-mscs": set_cover_to_mscs(COVER43)[::2],
        "ds-mscs": planar_ds_to_mscs(src)[::2],
    }
    got = {name: [sha(format_graph(g)), sha(format_metadata(meta))]
           for name, (g, meta) in built.items()}
    got["vc-intervals"].append(sha(format_intervals(inst)))
    assert got == FILE_GOLDENS
