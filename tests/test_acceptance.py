"""Release gate: eleven end-to-end checks with exact combinatorial targets.

Every test prints a single ``ACCEPTANCE NN <name>: PASS``/``FAIL`` line so a
plain ``pytest tests/test_acceptance.py`` run doubles as a scoreboard.  The
checks cross-validate the two solvers against each other, the reductions
against classical oracles, and the CLI against golden outputs; all targets
are exact (no tolerances).
"""

import contextlib
import itertools
import time
import warnings

import pytest

from consistent_subset import (
    ColoredGraph,
    SplitMix64,
    assignment_certificate,
    blocks,
    brute_force_mcs,
    brute_force_mscs,
    cubic_vc_to_intervals,
    dominating_set_to_mcs,
    interval_cover_certificate,
    intervals_to_graph,
    is_consistent,
    is_strict_consistent,
    max2sat_to_tree,
    min_dominating_set,
    min_set_cover,
    min_vertex_cover,
    parse_set_cover,
    planar_ds_to_mscs,
    random_connected_graph,
    random_set_cover,
    random_tree,
    random_two_sat,
    set_cover_to_mscs,
    solve_tree_mcs,
)
from consistent_subset.cli import main
from consistent_subset.treedp import solve_tree_mcs_detailed

from helpers import (
    RRBB_TEXT,
    complete_graph,
    cycle_graph,
    path_graph,
    predicted_interval_edges,
)

COVER43_SC = "p sc 4 3\ns 1 1 2 3\ns 2 1 3\ns 3 4\n"
K4_TEXT = ("p ccg 4 6 1\nv 1 1\nv 2 1\nv 3 1\nv 4 1\n"
           "e 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")


@contextlib.contextmanager
def verdict(capsys, number, name):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {name}: {outcome}")


@pytest.fixture(scope="module")
def solved_corpus():
    """500 seeded random trees solved by both algorithms, plus wall time."""
    start = time.perf_counter()
    rows = []
    for seed in range(1, 501):
        rng = SplitMix64(seed)
        n = 1 + rng.below(12)
        c = 1 + rng.below(3)
        g = random_tree(n, c, seed)
        rows.append((g, brute_force_mcs(g), solve_tree_mcs(g)))
    return rows, time.perf_counter() - start


def test_01_dp_oracle_equivalence(capsys, solved_corpus):
    rows, elapsed = solved_corpus
    with verdict(capsys, 1, "dp-oracle-equivalence"):
        assert len(rows) >= 500
        mismatches = [(g.n, g.c) for g, brute, dp in rows
                      if brute.size != dp.size]
        assert mismatches == []
        assert elapsed < 120.0


def test_02_witness_validity(capsys, solved_corpus):
    rows, _ = solved_corpus
    with verdict(capsys, 2, "witness-validity"):
        for g, brute, dp in rows:
            assert is_consistent(g, brute.witness)
            assert is_consistent(g, dp.witness)


def test_03_monochromatic_singletons(capsys):
    with verdict(capsys, 3, "monochromatic-singletons"):
        for seed in range(1, 51):
            rng = SplitMix64(1000 + seed)
            n = 1 + rng.below(12)
            g = random_connected_graph(n, 1, 1000 + seed)
            assert brute_force_mcs(g).size == 1
            assert brute_force_mscs(g).size == 1


def test_04_strict_dominates_and_hits_blocks(capsys):
    with verdict(capsys, 4, "strict-dominates-and-hits-blocks"):
        for seed in range(1, 101):
            rng = SplitMix64(2000 + seed)
            n = 1 + rng.below(10)
            c = 1 + rng.below(3)
            g = random_connected_graph(n, c, 2000 + seed)
            plain = brute_force_mcs(g)
            strict = brute_force_mscs(g)
            assert strict.size >= plain.size
            assert is_strict_consistent(g, strict.witness)
            chosen = set(strict.witness)
            for block in blocks(g):
                assert chosen & set(block)


def test_05_dominating_set_reduction(capsys):
    with verdict(capsys, 5, "dominating-set-reduction"):
        for seed in range(1, 31):
            rng = SplitMix64(3000 + seed)
            n = 1 + rng.below(8)
            g = random_connected_graph(n, 1 + rng.below(3), 3000 + seed)
            target, meta = dominating_set_to_mcs(g)
            gamma, _ = min_dominating_set(g)
            assert brute_force_mcs(target).size == gamma + 1
            assert meta.target_size(gamma) == gamma + 1


def test_06_set_cover_reduction(capsys):
    with verdict(capsys, 6, "set-cover-reduction"):
        for seed in range(1, 31):
            rng = SplitMix64(4000 + seed)
            n = 1 + rng.below(6)
            m = 1 + rng.below(5)
            sc = random_set_cover(n, m, 4000 + seed)
            graph, _, meta = set_cover_to_mscs(sc)
            best, _ = min_set_cover(sc)
            assert brute_force_mscs(graph).size == best + 1
            assert meta.target_size(best) == best + 1
        cover43, _, _ = set_cover_to_mscs(parse_set_cover(COVER43_SC))
        assert brute_force_mscs(cover43).size == 3


def test_07_pendant_reduction(capsys):
    sources = (
        complete_graph(2),
        path_graph([1, 1, 1]),
        path_graph([1, 1, 1, 1]),
        cycle_graph([1, 1, 1, 1]),
    )
    with verdict(capsys, 7, "pendant-reduction"):
        for g in sources:
            assert 5 * g.n <= 20
            derived, layout, meta = planar_ds_to_mscs(g)
            gamma, _ = min_dominating_set(g)
            cert = brute_force_mscs(derived)
            assert cert.size == g.n + gamma
            assert meta.target_size(gamma) == g.n + gamma
            chosen = set(cert.witness)
            for v in range(1, g.n + 1):
                assert (layout.r1[v] in chosen) == (layout.b1[v] in chosen)


def test_08_formula_tree_certificates(capsys):
    with verdict(capsys, 8, "formula-tree-certificates"):
        for seed in range(1, 51):
            rng = SplitMix64(5000 + seed)
            n = 1 + rng.below(3)
            m = 1 + rng.below(4)
            f = random_two_sat(n, m, 5000 + seed)
            with warnings.catch_warnings():
                # the small-M advisory concerns optimality of the target,
                # not the constructed certificates checked here
                warnings.simplefilter("ignore")
                tree, layout, meta = max2sat_to_tree(f, M=n ** 3)
            for bits in itertools.product((False, True), repeat=n):
                assignment = dict(enumerate(bits, start=1))
                k = f.satisfied_count(assignment)
                cert = assignment_certificate(layout, f, assignment)
                assert cert.size == meta.target_size(k)
                assert is_consistent(tree, cert.witness)


def test_09_interval_reduction(capsys):
    k4 = complete_graph(4)
    k33 = ColoredGraph(6, 1, {(u, w + 3) for u in (1, 2, 3)
                              for w in (1, 2, 3)}, [1] * 6)
    with verdict(capsys, 9, "interval-reduction"):
        instance, meta = cubic_vc_to_intervals(k4)
        assert meta.params == (("n", 4), ("m", 6), ("p", 64), ("q", 256))
        derived = intervals_to_graph(instance)
        assert derived.n == 1293
        cover_size, cover = min_vertex_cover(k4)
        assert cover_size == 3
        cert = interval_cover_certificate(instance, cover)
        assert cert.size == 201 == meta.target_size(3)
        assert is_consistent(derived, cert.witness)
        for g, p, q in ((k4, None, None), (k4, 1, 1), (k33, 2, 3)):
            inst, _ = cubic_vc_to_intervals(g, p, q)
            assert predicted_interval_edges(inst) \
                == intervals_to_graph(inst).edges


def test_10_dp_scaling(capsys):
    with verdict(capsys, 10, "dp-scaling"):
        for n, c in ((100, 2), (50, 3)):
            g = random_tree(n, c, 1000 * n + c)
            start = time.perf_counter()
            cert, _, table = solve_tree_mcs_detailed(g)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0
            assert is_consistent(g, cert.witness)
            bound = n ** 3 * 2 ** (3 * c)
            assert max(table.sizes_by_prefix().values()) <= bound


def test_11_cli_contract(capsys, tmp_path):
    rrbb = tmp_path / "rrbb.ccg"
    rrbb.write_text(RRBB_TEXT)
    subset = tmp_path / "rrbb.sub"
    subset.write_text("s 2 3\n")
    cover43 = tmp_path / "cover.sc"
    cover43.write_text(COVER43_SC)
    k4 = tmp_path / "k4.ccg"
    k4.write_text(K4_TEXT)

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    with verdict(capsys, 11, "cli-contract"):
        assert run("solve", str(rrbb), "--algo", "brute") \
            == (0, "size=2\nwitness=1,3\nalgo=brute\n")
        assert run("solve", str(rrbb), "--algo", "tree-dp") \
            == (0, "size=2\nwitness=1,3\nalgo=tree-dp\n")
        assert run("solve", str(rrbb), "--variant", "mscs") \
            == (0, "size=2\nwitness=1,4\nalgo=brute\n")
        assert run("verify", str(rrbb), str(subset), "--variant", "mscs") \
            == (0, "consistent=true\nstrict=true\n")
        assert run("inspect", str(rrbb)) \
            == (0, "n=4\nm=3\ncolors=2\nconnected=true\ntree=true\nblocks=2\n")

        generated = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.ccg"
            assert run("gen", "--reduction", "sc-mscs", str(cover43),
                       "-o", str(out))[0] == 0
            generated.append(out.read_bytes()
                             + (tmp_path / f"{name}.ccg.meta").read_bytes())
        assert generated[0] == generated[1]
        assert (tmp_path / "a.ccg").read_text().startswith("p ccg 9 14 2\n")
        for name in ("va", "vb"):
            assert run("gen", "--reduction", "vc-intervals", "--p", "1",
                       "--q", "1", str(k4), "-o", str(tmp_path / name))[0] == 0
        assert (tmp_path / "va").read_bytes() == (tmp_path / "vb").read_bytes()
        assert (tmp_path / "va.ccg").read_bytes() \
            == (tmp_path / "vb.ccg").read_bytes()

        def strip_millis(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [cols[:5] + cols[6:] for cols in rows]

        first = run("bench", "--suite", "random-trees", "--count", "3",
                    "--seed", "9")
        second = run("bench", "--suite", "random-trees", "--count", "3",
                     "--seed", "9")
        assert first[0] == 0 and second[0] == 0
        assert len(first[1].splitlines()) == 7
        assert strip_millis(first[1]) == strip_millis(second[1])
        sizes = {}
        for cols in strip_millis(first[1])[1:]:
            sizes.setdefault(cols[2], set()).add(cols[4])
        assert all(len(found) == 1 for found in sizes.values())
