"""Set-up of the three workloads: inputs on disk, the ops, and their answers.

Each op is one ``consist`` command line.  Its expected answer comes from
outside the code under test: committed pool answers (``pool.py``), the size
formula of a reduction applied to a classical oracle's optimum, or the
verdict of the reference checker in ``refcheck.py``.

Traffic per pass over the op list.  ``tree-solve`` and ``brute-solve``
solve the same instances in every run, with colour ids permuted by the
seed; every ``verify-large`` graph is built from the seed.

* ``tree-solve`` -- 40 ``consist solve`` ops, eight from each tree family
  of ``pool.py``: runs-paths (n 60-100, runs 15-30), alternating paths
  (n 200-400), caterpillars (spine 30-40, runs 8-15, n about 60-75),
  spiders (3-5 legs of 15-30 vertices, runs 5-15) and Prüfer trees
  (n 100-160, 2-3 colours).  ``auto`` picks ``tree-dp`` for all of them.
* ``brute-solve`` -- 105 ``consist solve --algo brute`` ops: 20 of each
  of the pool families tree-mcs, tree-mscs (Prüfer trees, n 14-18) and
  graph-mcs, graph-mscs (random connected graphs, n 12-14, edge
  probability 1/2), plus 9, 8 and 8 of the reductions ds-mcs (source n 8-11),
  sc-mscs (5-7 elements, 4-6 sets) and ds-mscs (source n 3-4).  As in the
  pools, the reduction sources are fixed and the seed permutes the output
  colours, so the enumeration's work does not move with the seed.
* ``verify-large`` -- 40 ``consist verify`` ops, each on its own graph:
  12 at n <= 2048, where the checker builds the all-pairs table (runs-path
  n=1000, caterpillar with a 500-vertex spine, Prüfer n=1200 with 3
  colours, and the vc-intervals overlap graph of K4 at default p and q,
  1293 vertices), and 28 above it (runs-paths n=2800, caterpillars with a
  1400-vertex spine, Prüfer trees n=3000).  Subsets alternate between the
  boundary subset (strict consistent by construction), the same minus one
  vertex chosen so the first failing vertex comes as late as possible,
  and, on the overlap graphs, the reduction's cover certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pool
import refcheck
import shapes

WORKLOADS = ("tree-solve", "brute-solve", "verify-large")


class SetupError(RuntimeError):
    """Inputs or references could not be built as specified."""


@dataclass
class Op:
    """One ``consist`` call and what it must answer.

    With ``text`` set, stdout must equal it exactly.  Without, stdout must
    report ``size`` and a witness that ``refcheck`` accepts for ``variant``
    on ``shape``, and say the brute-force solver produced it.
    """

    argv: list
    family: str
    n: int
    height: int
    c: int
    code: int = 0
    text: str | None = None
    shape: shapes.Shape | None = None
    variant: str = "mcs"
    size: int = 0

    def check(self, code, out: str):
        """``None`` if the answer is right, else what is wrong with it."""
        if code != self.code:
            return f"exit code {code!r}, expected {self.code}"
        if self.text is not None:
            return None if out == self.text else "stdout differs from the expected answer"
        fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        if fields.get("algo") != "brute" or fields.get("size") != str(self.size):
            return f"expected size={self.size} algo=brute"
        try:
            witness = [int(x) for x in fields.get("witness", "").split(",")]
        except ValueError:
            return "unreadable witness"
        if len(witness) != self.size or len(set(witness)) != self.size \
                or not all(1 <= v <= self.shape.n for v in witness):
            return "witness does not list size distinct vertices"
        ok, ok_strict, _, _ = refcheck.verdicts(self.shape, witness)
        if not (ok_strict if self.variant == "mscs" else ok):
            return f"witness is not {self.variant}-consistent"
        return None


def _solve_text(size: int, witness, algo: str) -> str:
    return f"size={size}\nwitness={','.join(map(str, witness))}\nalgo={algo}\n"


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _timed(tracer, name, fn, *args):
    with tracer.span(name):
        return fn(*args)


# --------------------------------------------------------------------------
# tree-solve and the pool half of brute-solve

def _pool_ops(lib, tracer, workload: str, rng, workdir: Path) -> list:
    picks = pool.select(pool.load_expected(), workload, rng)
    # interleave families so a pass alternates between shapes
    order = sorted(range(len(picks)), key=lambda i: (i % pool.FAMILIES[picks[i][0]].per_run, i))
    ops = []
    for slot, i in enumerate(order):
        family, base, var = picks[i]
        args = (lib, family, base["seed"], var["perm"])
        if family == "prufer" or workload == "brute-solve":
            s = _timed(tracer, "instances.gen", pool.build_member, *args)
        else:
            s = pool.build_member(*args)
        text = shapes.ccg_text(s)
        if shapes.digest(text) != var["digest"]:
            raise SetupError(f"{family} member {base['seed']} no longer matches its "
                             "committed digest; regenerate expected.json")
        path = _write(workdir, f"{slot:03d}-{family}.ccg", text)
        if workload == "tree-solve":
            argv = ["solve", path]
            algo = "tree-dp"
        else:
            argv = ["solve", path, "--algo", "brute", "--variant", pool.FAMILIES[family].variant]
            algo = "brute"
        ops.append(Op(argv, family, s.n, base["height"], s.c,
                      text=_solve_text(var["size"], var["witness"], algo)))
    return ops


def setup_tree_solve(lib, tracer, seed: int, workdir: Path) -> list:
    return _pool_ops(lib, tracer, "tree-solve", lib.instances.SplitMix64(seed), workdir)


# --------------------------------------------------------------------------
# brute-solve: pool members plus reduction outputs

# Reduction outputs per kind.  The ninth ds-mcs op makes 105 ops per pass,
# which puts the p90 tail at rank 95, between two pool instances within 2%
# of each other; at rank 94 it sat in a 19% gap between two instances and
# took the one or the other from run to run.
REDUCTIONS = (("ds-mcs", 9), ("sc-mscs", 8), ("ds-mscs", 8))
REDUCTION_SEED = 900_000


def _reduction(lib, tracer, kind: str, rng):
    """``(target shape, expected optimum, variant)`` for one reduction."""
    inst, red, ex = lib.instances, lib.reductions, lib.exact
    if kind == "ds-mcs":
        src = _timed(tracer, "instances.gen", inst.random_connected_graph,
                     8 + rng.below(4), 1, rng.next())
        target, meta = _timed(tracer, "reductions.build", red.dominating_set_to_mcs, src)
        k, _ = _timed(tracer, "exact.oracle", ex.min_dominating_set, src)
        return target, meta.target_size(k), "mcs"
    if kind == "sc-mscs":
        sc = _timed(tracer, "instances.gen", inst.random_set_cover,
                    5 + rng.below(3), 4 + rng.below(3), rng.next())
        target, _layout, meta = _timed(tracer, "reductions.build", red.set_cover_to_mscs, sc)
        k, _ = _timed(tracer, "exact.oracle", ex.min_set_cover, sc)
        return target, meta.target_size(k), "mscs"
    src = _timed(tracer, "instances.gen", inst.random_connected_graph,
                 3 + rng.below(2), 1, rng.next())
    target, _layout, meta = _timed(tracer, "reductions.build", red.planar_ds_to_mscs, src)
    k, _ = _timed(tracer, "exact.oracle", ex.min_dominating_set, src)
    return target, meta.target_size(k), "mscs"


def setup_brute_solve(lib, tracer, seed: int, workdir: Path) -> list:
    rng = lib.instances.SplitMix64(seed)
    ops = _pool_ops(lib, tracer, "brute-solve", rng, workdir)
    for k, (kind, count) in enumerate(REDUCTIONS):
        for j in range(count):
            source = lib.instances.SplitMix64(REDUCTION_SEED + 100 * k + j)
            target, size, variant = _reduction(lib, tracer, kind, source)
            s = shapes.recolour(shapes.from_graph(target), (1, 2) if rng.flip() else (2, 1))
            path = _write(workdir, f"{kind}-{j}.ccg", shapes.ccg_text(s))
            ops.append(Op(["solve", path, "--algo", "brute", "--variant", variant],
                          kind, s.n, shapes.height(s), s.c,
                          shape=s, variant=variant, size=size))
    # spread the cheap reduction ops through the pass
    return [ops[i] for i in sorted(range(len(ops)), key=lambda i: (i * 7919) % len(ops))]


# --------------------------------------------------------------------------
# verify-large

# (family, size parameter, ops per pass)
VERIFY_SCHEDULE = (
    ("runs-path", 1000, 3), ("caterpillar", 500, 3), ("prufer", 1200, 3),
    ("vc-intervals", 4, 3),
    ("runs-path", 2800, 10), ("caterpillar", 1400, 9), ("prufer", 3000, 9),
)
_K4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def late_failing_subset(s: shapes.Shape, subset: list, tries: int = 4) -> list:
    """``subset`` minus one vertex, so that the subset is no longer consistent
    and its smallest failing vertex is as large as possible among the first
    ``tries`` removals (by descending id) that break it."""
    adj = s.adjacency()
    best = None
    found = 0
    for w in sorted(subset, reverse=True):
        trial = [v for v in subset if v != w]
        if not trial:
            continue
        ok, _strict, bad, _bad_strict = refcheck.verdicts(s, trial, adj)
        if not ok:
            found += 1
            if best is None or bad > best[0]:
                best = (bad, trial)
            if found == tries:
                break
    if best is None:
        raise SetupError("no vertex removal breaks the subset")
    return best[1]


def _verify_input(lib, tracer, family: str, size: int, rng):
    """``(shape, subset)``; the subset is consistent by construction."""
    if family == "runs-path":
        s = shapes.runs_path(size, 10, 40, rng)
    elif family == "caterpillar":
        s = shapes.caterpillar(size, 10, 40, rng)
    elif family == "prufer":
        g = _timed(tracer, "instances.gen", lib.instances.random_tree, size, 3, rng.next())
        s = shapes.from_graph(g)
    else:
        k4 = lib.graph.ColoredGraph(size, 1, _K4, [1] * size)
        red = lib.reductions
        instance, _meta = _timed(tracer, "reductions.build", red.cubic_vc_to_intervals, k4)
        g = _timed(tracer, "reductions.build", red.intervals_to_graph, instance)
        # every three vertices of K4 cover it; the seed picks the one left out
        skip = 1 + rng.below(size)
        cover = [v for v in range(1, size + 1) if v != skip]
        cert = _timed(tracer, "reductions.build", red.interval_cover_certificate,
                      instance, cover)
        return shapes.from_graph(g), list(cert.witness)
    return s, shapes.boundary_subset(s)


def setup_verify_large(lib, tracer, seed: int, workdir: Path) -> list:
    rng = lib.instances.SplitMix64(seed)
    ops = []
    for family, size, count in VERIFY_SCHEDULE:
        for j in range(count):
            s, subset = _verify_input(lib, tracer, family, size, rng)
            promised = j % 2 == 0
            if not promised:
                subset = late_failing_subset(s, subset)
            ok, ok_strict, _, _ = refcheck.verdicts(s, subset)
            if ok != promised:
                raise SetupError(f"{family}: reference verdict {ok} contradicts the construction")
            variant = "mscs" if j % 3 == 2 else "mcs"
            label = f"{family}-{size}"
            name = f"{label}-{j}"
            graph = _write(workdir, name + ".ccg", shapes.ccg_text(s))
            sub = _write(workdir, name + ".sub", shapes.subset_text(subset))
            strict = ok and ok_strict
            text = f"consistent={str(ok).lower()}\nstrict={str(strict).lower()}\n"
            passed = strict if variant == "mscs" else ok
            ops.append(Op(["verify", graph, sub, "--variant", variant], label, s.n,
                          shapes.height(s), s.c, code=0 if passed else 1, text=text))
    # spread the all-pairs (n <= 2048) ops through the pass
    return [ops[i] for i in sorted(range(len(ops)), key=lambda i: (i * 13) % len(ops))]


SETUP = {"tree-solve": setup_tree_solve, "brute-solve": setup_brute_solve,
         "verify-large": setup_verify_large}


def traffic(ops: list) -> list:
    """One summary row per family: op count, n, height and colour ranges."""
    rows: dict = {}
    for op in ops:
        row = rows.setdefault(op.family, [0, [], [], set()])
        row[0] += 1
        row[1].append(op.n)
        row[2].append(op.height)
        row[3].add(op.c)
    return [(family, count, min(ns), max(ns), min(hs), max(hs), sorted(cs))
            for family, (count, ns, hs, cs) in rows.items()]
