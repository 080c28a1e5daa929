"""Benchmark driver for the ``consist`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tree-solve --seed 1 --seconds 30 --trace 0

Every op is one real user call, ``consistent_subset.cli.main(argv)``, made
in this process with stdout captured; the package is imported from the
checkout's ``src``.  One single-threaded closed loop sends the next op when
the previous one returns.  Set-up (import, inputs written to
``perfbench/out``, reference answers) is repeated, at least five times
and for about 1.5 s in all, and its median reported.  The op list is then
run in whole passes while the time left holds another pass (always at
least one), and every answer is checked after the clock stops.  Each op's
latency is its median over the passes, which are spread over the run; the
latency metrics and the throughput are computed from those medians, so a
burst of load from elsewhere on the machine during one pass does not move
them.

Times are reported at a reference machine speed.  On the shared 2-vCPU
host the benchmark was built on, the process ran at one of two speeds,
about 1.6x apart, switching between them every few seconds; the share of
time spent at each moved a run's medians by 20% or more.  So a fixed kernel (``calibration``) is timed before every
op and after every op and set-up, and each op's wall time is scaled by
``CAL_REF_S`` over the mean of the kernel's two times around it: the time
the op would take on a machine where the kernel takes ``CAL_REF_S``.  The
kernel is code of the benchmark, so a change to the program moves the
scaled times exactly as it moves the wall times.  Wall times are printed
too, and ``--trace 1`` reports them with the kernel's own time.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` passes alternate between untraced and traced, the result
carries the per-layer metrics of the traced passes plus the tracing
overhead, and the spans are written to ``perfbench/out``.

The last stdout line is the JSON result; the lines before it name every
metric with its unit and sample count.  The exit code is 1 if any op gave
a wrong answer, and 2 without a result if set-up fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import types
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (benchmark modules live beside this file)
import workloads  # noqa: E402

LIB_MODULES = ("cli", "exact", "graph", "instances", "reductions", "treedp")
# set-ups per run: at least SETUPS_MIN, more while under SETUPS_SECONDS
SETUPS_MIN, SETUPS_MAX, SETUPS_SECONDS = 5, 15, 1.5
# tail percentile: the highest of these with at least 10 samples beyond it
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# calibration kernel: CAL_STEPS chained lookups in a table of CAL_KEYS tuple
# keys, after an untimed warm-up that brings the table back into cache; it
# allocates nothing, so the program's memory use does not move it.
# CAL_REF_S is its time at the reference speed, a fixed value near its
# median (1.4-1.7 ms) on a shared 2.1 GHz Xeon vCPU.
CAL_KEYS, CAL_STEPS, CAL_REF_S = 1024, 10_000, 1.4e-3
_CAL_KEYS = [(i, -i) for i in range(CAL_KEYS)]
_CAL_TABLE = {key: (j * 40503) % CAL_KEYS for j, key in enumerate(_CAL_KEYS)}


def _kernel(steps: int) -> int:
    keys, table, x = _CAL_KEYS, _CAL_TABLE, 0
    for i in range(steps):
        x = table[keys[x ^ (i % CAL_KEYS)]]
    return x


def calibration() -> float:
    """Seconds the fixed calibration kernel takes now: the machine's speed."""
    _kernel(CAL_STEPS // 5)
    t0 = perf_counter()
    _kernel(CAL_STEPS)
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the reference speed, given the kernel's
    times just before and just after them."""
    return seconds * CAL_REF_S * 2 / (before + after)


def import_library(fresh: bool = False) -> types.SimpleNamespace:
    """The library's modules, imported from this checkout's ``src``."""
    if not (SRC / "consistent_subset" / "__init__.py").is_file():
        raise workloads.SetupError(f"no consistent_subset package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m.split(".")[0] == "consistent_subset"]:
            del sys.modules[name]
    lib = types.SimpleNamespace(**{name: importlib.import_module(f"consistent_subset.{name}")
                                   for name in LIB_MODULES})
    if SRC not in Path(lib.cli.__file__).resolve().parents:
        raise workloads.SetupError(f"consistent_subset was imported from {lib.cli.__file__}")
    return lib


def set_up(workload: str, seed: int, tracer) -> tuple:
    """``(library, ops, wall seconds, scaled seconds)`` for one fresh import
    and set-up."""
    workdir = OUT / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    before = calibration()
    t0 = perf_counter()
    with tracer.span("setup"):
        lib = import_library(fresh=True)
        ops = workloads.SETUP[workload](lib, tracer, seed, workdir)
    took = perf_counter() - t0
    return lib, ops, took, scaled(took, before, calibration())


def call(main, argv) -> tuple:
    """``(exit code, stdout)`` of one CLI call; an exception is an answer too."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed op, reported below
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_pass(ops, main, answers, tracer=None) -> tuple:
    """One pass over ``ops``: ``(wall seconds, scaled seconds, kernel
    seconds)``, each a list in op order.  Distinct ``(code, stdout)``
    answers and their counts go to ``answers``.

    A full collection, untimed, precedes every op.  A ``consist`` call
    starts in a fresh process; without it, when the cyclic collector runs
    during an op would depend on the ops before it, and the all-pairs ops
    of ``verify-large`` would take one more or one fewer full collection
    of millions of objects from pass to pass."""
    times, scaled_times, kernel = [], [], [calibration()]
    for i, op in enumerate(ops):
        gc.collect()            # every op starts from the same collector state
        if tracer is not None:
            tracer.op = i
            with tracer.span("cli.main"):
                t0 = perf_counter()
                answer = call(main, op.argv)
                dt = perf_counter() - t0
        else:
            t0 = perf_counter()
            answer = call(main, op.argv)
            dt = perf_counter() - t0
        kernel.append(calibration())
        times.append(dt)
        scaled_times.append(scaled(dt, kernel[-2], kernel[-1]))
        answers[i][answer] = answers[i].get(answer, 0) + 1
    return times, scaled_times, kernel


def per_op(passes: list) -> list:
    """Each op's median seconds over ``passes``."""
    return [statistics.median(ts) for ts in zip(*passes)]


def count_failures(ops, answers) -> tuple:
    """``(attempted, failed, first failure message)``, outside the timer."""
    attempted = failed = 0
    first = None
    for op, seen in zip(ops, answers):
        for (code, out), count in seen.items():
            attempted += count
            problem = op.check(code, out)
            if problem is not None:
                failed += count
                first = first or f"{' '.join(op.argv)}: {problem}"
    return attempted, failed, first


def tail(values: list) -> tuple:
    """``(percentile, value)``: nearest-rank percentile with >= 10 samples beyond."""
    ordered = sorted(values)
    k = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * k)
        if k - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tracer = spans.Tracer()
    setups = []
    while len(setups) < SETUPS_MIN or (len(setups) < SETUPS_MAX
                                       and sum(t for t, _, _ in setups) < SETUPS_SECONDS):
        mark = len(tracer.spans)
        lib, ops, took, took_scaled = set_up(workload, seed, tracer)
        setups.append((took, took_scaled, tracer.totals(mark)[0]))
    setup_s = statistics.median(t for _, t, _ in setups)
    main = lib.cli.main
    limit_before = sys.getrecursionlimit()
    call(main, min(ops, key=lambda op: op.n).argv)       # warm-up, untimed
    gc.collect()
    gc.freeze()             # the benchmark's own objects stay out of collections

    answers = [{} for _ in ops]
    plain, traced_passes = [], []
    first_traced_span = len(tracer.spans)
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if traced and len(traced_passes) < len(plain):
            with spans.wrapped_layers(lib, tracer):
                traced_passes.append(run_pass(ops, main, answers, tracer))
        else:
            plain.append(run_pass(ops, main, answers))
        now = perf_counter()
        if now - start + (now - t0) > seconds and (not traced or traced_passes):
            break
    attempted, failed, problem = count_failures(ops, answers)

    latency = per_op([s for _, s, _ in plain])
    wall = per_op([w for w, _, _ in plain])
    kernel = statistics.median(k for _, _, ks in plain for k in ks)
    p_tail, v_tail = tail(latency)
    each = f"{len(ops)} ops, each the median of its {len(plain)} passes at reference speed"
    rec = {
        "ops": ops, "passes": len(plain), "traced_passes": len(traced_passes),
        "attempted": attempted, "failed": failed, "problem": problem,
        "limit": (limit_before, sys.getrecursionlimit()),
        "e2e": {
            "setup_s": (setup_s, "s", f"median of {len(setups)} set-ups at reference speed"),
            "ops_per_s": (len(ops) / sum(latency), "1/s", f"{len(ops)} ops over the sum "
                          f"of their medians of {len(plain)} passes at reference speed"),
            "op_p50_ms": (statistics.median(latency) * 1e3, "ms", each),
            "op_tail_ms": (v_tail * 1e3, "ms", f"p{p_tail:g} of {each}"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                            "1 process"),
        },
        "wall": {
            "wall.setup_s": (statistics.median(t for t, _, _ in setups), "s",
                             f"median of {len(setups)} set-ups"),
            "wall.ops_per_s": (len(ops) / sum(wall), "1/s", f"{len(plain)} passes"),
            "wall.op_p50_ms": (statistics.median(wall) * 1e3, "ms", f"{len(plain)} passes"),
            "calib.kernel_ms": (kernel * 1e3, "ms", f"median of {len(plain) * (len(ops) + 1)} "
                                f"kernel runs; reference {CAL_REF_S * 1e3:g} ms"),
        },
        "failed_frac": failed / attempted,
    }
    if traced:
        rec["layers"] = layer_metrics(tracer, first_traced_span, len(traced_passes),
                                      [layers for _, _, layers in setups])
        untraced = len(ops) / sum(latency)
        tr = len(ops) / sum(per_op([s for _, s, _ in traced_passes]))
        rec["layers"].update(rec["wall"])
        rec["layers"].update({
            "trace.untraced_ops_per_s": (untraced, "1/s", f"{len(plain)} untraced passes"),
            "trace.traced_ops_per_s": (tr, "1/s", f"{len(traced_passes)} traced passes"),
            "trace.overhead_pct": ((untraced / tr - 1) * 100, "%", "untraced vs traced"),
        })
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}-{seed}.jsonl")
    return rec


def layer_metrics(tracer, first: int, passes: int, setup_layers: list) -> dict:
    """Per-layer metrics per traced pass over the op list, and per set-up."""
    dur, own = tracer.totals(first)
    counts = tracer.counts
    calls = Counter(name for name, *_ in tracer.spans[first:])
    note = f"per pass, {passes} traced passes"

    def per_pass(value, unit):
        return (value / passes, unit, note)

    def rate(work, busy):
        return (work / busy if busy else 0.0, "1/s", note)

    out = {
        "cli.main_s": per_pass(dur["cli.main"], "s"),
        "cli.self_s": per_pass(own["cli.main"], "s"),
        "graph.parse_s": per_pass(dur["graph.parse"], "s"),
        "graph.parse_calls": per_pass(calls["graph.parse"], "count"),
        "graph.check_s": per_pass(dur["graph.check"], "s"),
        "graph.check_calls": per_pass(calls["graph.check"], "count"),
        "graph.check_vertices_per_s": rate(counts["graph.check_vertices"], dur["graph.check"]),
        "treedp.solve_s": per_pass(dur["treedp.solve"], "s"),
        "treedp.root_s": per_pass(dur["treedp.root"], "s"),
        "treedp.witness_s": per_pass(dur["treedp.witness"], "s"),
        "treedp.fill_s": per_pass(own["treedp.solve"], "s"),
        "treedp.memo_keys": per_pass(counts["treedp.memo_keys"], "count"),
        "treedp.max_prefix_keys": (counts["treedp.max_prefix_keys"], "count",
                                   "largest child prefix of any op"),
        "treedp.keys_per_s": rate(counts["treedp.memo_keys"], own["treedp.solve"]),
        "exact.brute_s": per_pass(dur["exact.brute"], "s"),
        "exact.brute_calls": per_pass(calls["exact.brute"], "count"),
        "exact.candidates": per_pass(counts["exact.candidates"], "count"),
        "exact.candidates_per_s": rate(counts["exact.candidates"], dur["exact.brute"]),
    }
    for name in ("reductions.build", "exact.oracle", "instances.gen"):
        out[name + "_s"] = (statistics.median(layers[name] for layers in setup_layers),
                            "s", f"median of {len(setup_layers)} set-ups")
    return out


def report(workload: str, seed: int, rec: dict, traced: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    print(f"workload={workload} seed={seed} ops_per_pass={len(rec['ops'])} "
          f"passes={rec['passes']} traced_passes={rec['traced_passes']}")
    for family, count, n_lo, n_hi, h_lo, h_hi, colours in workloads.traffic(rec["ops"]):
        print(f"traffic family={family} ops={count} n={n_lo}-{n_hi} "
              f"height={h_lo}-{h_hi} colours={','.join(map(str, colours))}")
    before, after = rec["limit"]
    print(f"recursion_limit before={before} after={after}")
    metrics = rec["layers"] if traced else rec["e2e"]
    rows = dict(metrics) if traced else {**metrics, **rec["wall"]}
    rows["failed_frac"] = (rec["failed_frac"], "1", f"{rec['attempted']} ops attempted")
    for name, (value, unit, samples) in rows.items():
        print(f"metric {name:28s} {value:14.6g} {unit:6s} {samples}")
    if rec["problem"]:
        print(f"FAILED {rec['failed']} of {rec['attempted']} ops; first: {rec['problem']}")
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT / f"{args.workload}-{args.seed}", ignore_errors=True)
    result = report(args.workload, args.seed, rec, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
