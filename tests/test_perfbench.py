"""The benchmark's own self-tests, run as part of the test suite.

``perfbench/selftest.py`` checks the committed pool answers against their
builders and reference checkers, confirms the tree DP on small members of
each pool shape, and runs a traced solve through the timing wrappers that
``perfbench/spans.py`` swaps in at library names (``treedp.root_tree``,
``treedp.reconstruct_witness``, ``treedp.solve_tree_mcs`` and others).  A
library change that breaks one of these fails here, not first in a
benchmark run.  The tree DP's answers on every ``tree-solve`` pool variant
are also checked in-process against ``expected.json``.
"""

import pathlib
import subprocess
import sys

import consistent_subset
from consistent_subset import solve_tree_mcs
from consistent_subset.graph import parse_graph
from helpers import child_env

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftests_pass():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, env=child_env(), timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tree_pool_answers_match_expected():
    # every variant of every tree-solve pool base, rebuilt from its seed and
    # colour permutation, gets the committed optimum and witness
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import pool
        import shapes
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    expected = pool.load_expected()
    checked = 0
    for family, fam in pool.FAMILIES.items():
        if fam.workload != "tree-solve":
            continue
        for base in expected[family]:
            for var in base["variants"]:
                s = pool.build_member(consistent_subset, family, base["seed"], var["perm"])
                g = parse_graph(shapes.ccg_text(s))
                cert = solve_tree_mcs(g)
                assert (cert.size, list(cert.witness)) == (var["size"], var["witness"]), \
                    (family, base["seed"], var["perm"])
                checked += 1
    assert checked == 104
