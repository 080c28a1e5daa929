"""Self-tests of the benchmark itself.  Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pool  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import shapes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

LIB = run.import_library()


def _set_up(workload: str, seed: int, workdir: Path) -> list:
    return workloads.SETUP[workload](LIB, spans.Tracer(), seed, workdir)


class ScratchDir(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=run.OUT))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def subdir(self, name: str) -> Path:
        path = self.dir / name
        path.mkdir()
        return path


class InputsAreSeeded(ScratchDir):
    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                dirs = [self.subdir(f"{workload}-{i}") for i in range(3)]
                for d, seed in zip(dirs, (5, 5, 6)):
                    _set_up(workload, seed, d)
                files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]
                self.assertTrue(files[0])
                self.assertEqual(files[0], files[1])
                self.assertNotEqual(files[0], files[2])


class WrongAnswersCount(ScratchDir):
    def test_driver_counts_a_wrong_answer_and_exits_nonzero(self):
        def setup_with_swapped_inputs(lib, tracer, seed, workdir):
            ops = sorted(workloads.setup_tree_solve(lib, tracer, seed, workdir),
                         key=lambda op: op.n)[:3]
            # op 0 now solves op 1's graph, so its answer is wrong
            assert ops[0].text != ops[1].text
            ops[0].argv = list(ops[1].argv)
            return ops

        saved = workloads.SETUP["tree-solve"]
        workloads.SETUP["tree-solve"] = setup_with_swapped_inputs
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = run.main(["--workload", "tree-solve", "--seed", "1",
                                 "--seconds", "0.01", "--trace", "0"])
        finally:
            workloads.SETUP["tree-solve"] = saved
        result = out.getvalue().splitlines()
        self.assertEqual(code, 1)
        self.assertIn('"correct": false', result[-1])
        self.assertIn('"failed": 1', result[-1])
        self.assertIn("failed_frac", out.getvalue())

    def test_witness_checks_reject_wrong_answers(self):
        ops = [op for op in _set_up("brute-solve", 2, self.dir) if op.text is None]
        op = ops[0]
        code, out = run.call(LIB.cli.main, op.argv)
        self.assertIsNone(op.check(code, out))
        fields = dict(line.split("=", 1) for line in out.splitlines())
        witness = fields["witness"].split(",")
        bad = out.replace(f"witness={fields['witness']}",
                          "witness=" + ",".join(witness[:-1] + [str(op.shape.n + 1)]))
        self.assertIsNotNone(op.check(0, bad))
        self.assertIsNotNone(op.check(0, out.replace(f"size={op.size}", f"size={op.size + 1}")))
        self.assertIsNotNone(op.check(3, out))


class SpansAddUp(ScratchDir):
    def test_self_times_sum_to_the_root_duration(self):
        for workload in workloads.WORKLOADS:
            ops = sorted(_set_up(workload, 3, self.subdir(workload)), key=lambda op: op.n)[:4]
            tracer = spans.Tracer()
            answers = [{} for _ in ops]
            with spans.wrapped_layers(LIB, tracer):
                run.run_pass(ops, LIB.cli.main, answers, tracer)
            selfs = tracer.self_times()
            names = {record[0] for record in tracer.spans}
            self.assertIn("graph.parse", names)
            for i, (name, start, end, parent, op) in enumerate(tracer.spans):
                if parent is None:
                    self.assertEqual(name, "cli.main")
                    inside = [j for j, rec in enumerate(tracer.spans) if rec[4] == op]
                    self.assertAlmostEqual(sum(selfs[j] for j in inside), end - start, delta=1e-9)
                else:
                    parent_rec = tracer.spans[parent]
                    self.assertLessEqual(parent_rec[1], start)
                    self.assertLessEqual(end, parent_rec[2])
            self.assertEqual(run.count_failures(ops, answers)[1], 0)

    def test_tail_has_ten_samples_beyond(self):
        for k, p in ((50, 75.0), (104, 90.0), (40, 75.0), (200, 95.0), (25, 50.0)):
            got, value = run.tail(list(range(k)))
            self.assertEqual(got, p)
            self.assertGreaterEqual(sum(1 for v in range(k) if v > value), 10)


class ReferencesAgree(unittest.TestCase):
    def test_fast_checker_matches_per_vertex_bfs(self):
        for seed in range(60):
            rng = LIB.instances.SplitMix64(seed)
            n = 2 + rng.below(9)
            s = shapes.from_graph(LIB.instances.random_connected_graph(n, 1 + rng.below(3), seed))
            subset = [v for v in range(1, n + 1) if rng.flip()] or [1]
            fast = refcheck.verdicts(s, subset)[:2]
            self.assertEqual(fast, refcheck.slow_verdicts(s, subset))
            self.assertEqual(fast, (LIB.graph.is_consistent(LIB.graph.parse_graph(
                shapes.ccg_text(s)), subset), LIB.graph.is_strict_consistent(
                LIB.graph.parse_graph(shapes.ccg_text(s)), subset)))

    def test_path_oracle_matches_enumeration(self):
        for seed in range(150):
            rng = LIB.instances.SplitMix64(seed)
            n = 1 + rng.below(12)
            s = shapes.make_shape(n, [1 + rng.below(3) for _ in range(n)],
                                  [(v, v + 1) for v in range(1, n)])
            self.assertEqual(refcheck.path_optimum(s.colors), len(refcheck.minimum_subset(s)))

    def test_tree_dp_confirmed_on_small_members_of_each_shape(self):
        small = {
            "runs-path": lambda rng: shapes.runs_path(4 + rng.below(9), 1, 4, rng),
            "alternating-path": lambda rng: shapes.alternating_path(2 + rng.below(11), rng),
            "caterpillar": lambda rng: shapes.caterpillar(2 + rng.below(4), 1, 3, rng),
            "spider": lambda rng: shapes.spider(3, 1, 3, 1, 2, rng),
            "prufer": lambda rng: shapes.from_graph(
                LIB.instances.random_tree(4 + rng.below(9), 2 + rng.below(2), rng.next())),
        }
        self.assertEqual(set(small), {f for f, fam in pool.FAMILIES.items()
                                      if fam.workload == "tree-solve"})
        for family, build in small.items():
            for seed in range(25):
                s = build(LIB.instances.SplitMix64(seed))
                if s.n > 13:
                    continue
                g = LIB.graph.parse_graph(shapes.ccg_text(s))
                dp = LIB.treedp.solve_tree_mcs(g)
                brute = LIB.exact.brute_force_mcs(g)
                ref = refcheck.minimum_subset(s)
                with self.subTest(family=family, seed=seed):
                    self.assertEqual(dp.size, brute.size)
                    self.assertEqual(dp.size, len(ref))
                    self.assertEqual(tuple(brute.witness), ref)
                    self.assertTrue(refcheck.verdicts(s, dp.witness)[0])

    def test_committed_pool_matches_its_builders(self):
        expected = pool.load_expected()
        for family, fam in pool.FAMILIES.items():
            self.assertEqual(len(expected[family]), fam.per_run)
            for base in expected[family]:
                for var in base["variants"]:
                    s = pool.build_member(LIB, family, base["seed"], var["perm"])
                    self.assertEqual(shapes.digest(shapes.ccg_text(s)), var["digest"])
                    ok, ok_strict, _, _ = refcheck.verdicts(s, var["witness"])
                    self.assertTrue(ok_strict if fam.variant == "mscs" else ok)
                    if family.endswith("-path"):
                        self.assertEqual(var["size"], refcheck.path_optimum(s.colors))

    def test_colour_permutations_keep_the_work(self):
        for family, bases in pool.load_expected().items():
            for base in bases:
                costs = [v["cost"] for v in base["variants"]]
                with self.subTest(family=family, seed=base["seed"]):
                    self.assertEqual(len(costs), math.factorial(base["c"]))
                    self.assertLessEqual(max(costs) - min(costs), max(costs) // 1000)


class RefusesWithoutTheProgram(ScratchDir):
    def test_exits_nonzero_without_src(self):
        bench = self.dir / "perfbench"
        bench.mkdir()
        for path in run.HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bench / path.name)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tree-solve",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=self.dir, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
