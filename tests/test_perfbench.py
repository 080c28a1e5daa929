"""The benchmark's own self-tests, run as part of the test suite.

``perfbench/selftest.py`` checks the committed pool answers against their
builders and reference checkers, confirms the tree DP on small members of
each pool shape, and runs a traced solve through the timing wrappers that
``perfbench/spans.py`` swaps in at library names (``treedp.root_tree``,
``treedp.reconstruct_witness``, ``treedp.solve_tree_mcs`` and others).  A
library change that breaks one of these fails here, not first in a
benchmark run.
"""

import pathlib
import subprocess
import sys

from helpers import child_env

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftests_pass():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, env=child_env(), timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
