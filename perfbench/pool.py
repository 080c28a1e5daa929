"""Committed instance pools for the ``tree-solve`` and ``brute-solve`` workloads.

Every run of these workloads solves the same base instances, each with its
colour ids permuted by the run's seed.  A permutation changes the input
bytes but, in practice, not the work: the brute-force enumeration never
looks at a colour's id (its order, its colour and block prunes and the
checker's comparisons only compare colours), and the tree DP visits the
same number of memo keys give or take a few.  So runs with different seeds
measure the same load; solver costs span orders of magnitude across
instances, and drawing different instances per seed would swing the load
by more than the benchmark's bounds.  The expected optimum and witness of
every base instance under every permutation are committed in
``expected.json``, so every answer is checked exactly without solving
anything during set-up.

Tree families: ``candidates`` times as many trees as a run needs are built
and sorted by memo keys, and the bases are the trees at quantiles
``(j + 1/2) / per_run`` of that order, so they span the family's range of
cost without its extremes.  Brute-force families take their first
``per_run`` instances.

Regenerate ``expected.json`` after changing a family (takes a few minutes)::

    python3 perfbench/pool.py

It refuses to write unless every answer passes the references in
``refcheck.py``: witness validity for all variants, the path oracle for the
path families and exact enumeration for the brute-force families.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import refcheck
import shapes

EXPECTED = Path(__file__).with_name("expected.json")


class Family(NamedTuple):
    workload: str
    variant: str
    per_run: int
    candidates: int               # trees built per base kept
    build: Callable               # (lib, SplitMix64) -> shapes.Shape


def _prufer(lib, rng, lo, hi):
    n = lo + rng.below(hi - lo + 1)
    return shapes.from_graph(lib.instances.random_tree(n, 2 + rng.below(2), rng.next()))


def _connected(lib, rng, lo, hi):
    n = lo + rng.below(hi - lo + 1)
    return shapes.from_graph(
        lib.instances.random_connected_graph(n, 2 + rng.below(2), rng.next()))


FAMILIES = {
    "runs-path": Family("tree-solve", "mcs", 8, 6,
                        lambda lib, rng: shapes.runs_path(60 + rng.below(41), 15, 30, rng)),
    "alternating-path": Family("tree-solve", "mcs", 8, 6,
                               lambda lib, rng: shapes.alternating_path(200 + rng.below(201), rng)),
    "caterpillar": Family("tree-solve", "mcs", 8, 6,
                          lambda lib, rng: shapes.caterpillar(30 + rng.below(11), 8, 15, rng)),
    "spider": Family("tree-solve", "mcs", 8, 6,
                     lambda lib, rng: shapes.spider(3 + rng.below(3), 15, 30, 5, 15, rng)),
    "prufer": Family("tree-solve", "mcs", 8, 6, lambda lib, rng: _prufer(lib, rng, 100, 160)),
    "tree-mcs": Family("brute-solve", "mcs", 20, 1, lambda lib, rng: _prufer(lib, rng, 14, 18)),
    "tree-mscs": Family("brute-solve", "mscs", 20, 1, lambda lib, rng: _prufer(lib, rng, 14, 18)),
    "graph-mcs": Family("brute-solve", "mcs", 20, 1,
                        lambda lib, rng: _connected(lib, rng, 12, 14)),
    "graph-mscs": Family("brute-solve", "mscs", 20, 1,
                         lambda lib, rng: _connected(lib, rng, 12, 14)),
}


def member_seed(family: str, index: int) -> int:
    return (list(FAMILIES).index(family) + 1) * 100_000 + index


def build_member(lib, family: str, seed: int, perm=None) -> shapes.Shape:
    """Pool member ``seed`` of ``family``, recoloured by ``perm`` if given."""
    s = FAMILIES[family].build(lib, lib.instances.SplitMix64(seed))
    return s if perm is None else shapes.recolour(s, perm)


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def select(expected: dict, workload: str, rng) -> list:
    """``(family, base record, variant record)`` for every base of the workload."""
    out = []
    for family, fam in FAMILIES.items():
        if fam.workload == workload:
            for base in expected[family]:
                variants = base["variants"]
                out.append((family, base, variants[rng.below(len(variants))]))
    return out


# --------------------------------------------------------------------------
# offline pool construction

def _solve(lib, family: str, s: shapes.Shape) -> tuple:
    """``(size, witness, cost)`` from the library, checked by the references."""
    fam = FAMILIES[family]
    g = lib.graph.parse_graph(shapes.ccg_text(s))
    if fam.workload == "tree-solve":
        cert, _tree, table = lib.treedp.solve_tree_mcs_detailed(g)
        cost = table.size
        if family.endswith("-path") and cert.size != refcheck.path_optimum(s.colors):
            raise AssertionError(f"{family}: tree DP disagrees with the path oracle")
    else:
        calls = [0]
        scan = lib.exact._consistency_scan

        def counting(*args):
            calls[0] += 1
            return scan(*args)

        lib.exact._consistency_scan = counting
        try:
            solver = (lib.exact.brute_force_mscs if fam.variant == "mscs"
                      else lib.exact.brute_force_mcs)
            cert = solver(g)
        finally:
            lib.exact._consistency_scan = scan
        cost = calls[0]
        if tuple(cert.witness) != refcheck.minimum_subset(s, strict=fam.variant == "mscs"):
            raise AssertionError(f"{family}: brute force disagrees with the reference")
    ok, ok_strict, _, _ = refcheck.verdicts(s, cert.witness)
    if not (ok_strict if fam.variant == "mscs" else ok):
        raise AssertionError(f"{family}: witness fails the reference checker")
    return cert.size, list(cert.witness), cost


def build(lib) -> dict:
    out = {}
    for family, fam in FAMILIES.items():
        t0 = time.perf_counter()
        built = fam.per_run * fam.candidates
        ranked = []
        for index in range(built):
            seed = member_seed(family, index)
            s = build_member(lib, family, seed)
            cost = _solve(lib, family, s)[2] if fam.candidates > 1 else 0
            ranked.append((cost, seed))
        ranked.sort()
        bases = []
        for j in range(fam.per_run):
            seed = ranked[(2 * j + 1) * built // (2 * fam.per_run)][1]
            s = build_member(lib, family, seed)
            variants = []
            for perm in itertools.permutations(range(1, s.c + 1)):
                t = shapes.recolour(s, perm)
                size, witness, cost = _solve(lib, family, t)
                variants.append({"perm": list(perm), "digest": shapes.digest(shapes.ccg_text(t)),
                                 "size": size, "witness": witness, "cost": cost})
            bases.append({"seed": seed, "n": s.n, "height": shapes.height(s), "c": s.c,
                          "variants": variants})
        out[family] = bases
        costs = [v["cost"] for b in bases for v in b["variants"]]
        print(f"{family}: {len(bases)} bases of {built}, n {min(b['n'] for b in bases)}-"
              f"{max(b['n'] for b in bases)}, cost {min(costs)}-{max(costs)}, "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return out


def main() -> int:
    import run                      # imports the library from ../src
    lib = run.import_library()
    data = build(lib)
    EXPECTED.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
