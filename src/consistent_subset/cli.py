"""The ``consist`` command-line driver.

Subcommands:

* ``solve``    -- optimal consistent / strict consistent subset of a graph
* ``verify``   -- check a candidate subset against a graph
* ``gen``      -- build a named instance family (writes instance + sidecar)
* ``bench``    -- time both solvers on random trees, emit CSV
* ``inspect``  -- structural summary of an instance file

All output is line-oriented ``key=value`` so shell scripts can grep it.
Exit codes: 0 success, 1 failed verification, 2 bad input (parse or usage),
3 precondition violation (e.g. instance too large for brute force).
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time

from . import exact, instances, reductions, treedp
from .graph import (ParseError, PreconditionError, blocks, format_graph,
                    is_consistent, is_strict_consistent, parse_graph,
                    parse_subset)


class _CliError(Exception):
    """Internal: carries an exit code and a user-facing message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(2, f"{path}: {exc.strerror or exc}") from None


def _parse_file(path: str, parser_fn):
    text = _read(path)
    try:
        return parser_fn(text)
    except ParseError as exc:
        raise _CliError(2, f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(2, f"{path}: {exc.strerror or exc}") from None


# --------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    g = _parse_file(args.file, parse_graph)
    algo = args.algo
    if algo == "auto":
        algo = ("tree-dp" if args.variant == "mcs" and g.is_tree
                and g.c <= args.color_cap else "brute")
    if algo == "tree-dp":
        if args.variant != "mcs":
            raise PreconditionError("the tree solver handles variant mcs only")
        cert = treedp.solve_tree_mcs(g, color_cap=args.color_cap)
    elif args.variant == "mcs":
        cert = exact.brute_force_mcs(g, cap=args.cap)
    else:
        cert = exact.brute_force_mscs(g, cap=args.cap)
    print(f"size={cert.size}")
    print("witness=" + ",".join(str(v) for v in cert.witness))
    print(f"algo={algo}")
    return 0


def _cmd_verify(args) -> int:
    g = _parse_file(args.graph, parse_graph)
    ids = _parse_file(args.subset, lambda text: parse_subset(text, g.n))
    consistent = is_consistent(g, ids)
    strict = consistent and is_strict_consistent(g, ids)
    print(f"consistent={'true' if consistent else 'false'}")
    print(f"strict={'true' if strict else 'false'}")
    ok = strict if args.variant == "mscs" else consistent
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    out = args.output
    written = [out]
    try:
        if args.reduction == "ds-mcs":
            g = _parse_file(args.input, parse_graph)
            target, meta = reductions.dominating_set_to_mcs(g)
            _write(out, format_graph(target))
        elif args.reduction == "2sat-tree":
            formula = _parse_file(args.input, reductions.parse_cnf2)
            target, _, meta = reductions.max2sat_to_tree(formula, M=args.M)
            _write(out, format_graph(target))
        elif args.reduction == "vc-intervals":
            g = _parse_file(args.input, parse_graph)
            instance, meta = reductions.cubic_vc_to_intervals(g, p=args.p, q=args.q)
            _write(out, reductions.format_intervals(instance))
            derived = reductions.intervals_to_graph(instance)
            _write(out + ".ccg", format_graph(derived))
            written.append(out + ".ccg")
        elif args.reduction == "sc-mscs":
            sc = _parse_file(args.input, reductions.parse_set_cover)
            target, _, meta = reductions.set_cover_to_mscs(sc)
            _write(out, format_graph(target))
        else:                   # ds-mscs
            g = _parse_file(args.input, parse_graph)
            target, _, meta = reductions.planar_ds_to_mscs(g)
            _write(out, format_graph(target))
    except PreconditionError as exc:
        # an unusable source instance or parameter is a usage error here
        raise _CliError(2, f"invalid parameters: {exc}") from None
    _write(out + ".meta", reductions.format_metadata(meta))
    written.append(out + ".meta")
    for path in written:
        print(f"wrote={path}")
    return 0


def _cmd_bench(args) -> int:
    if args.max_n < 1 or args.max_c < 1 or args.count < 0:
        raise _CliError(2, "--max-n and --max-c must be positive, --count nonnegative")
    if args.max_c > treedp.DEFAULT_COLOR_CAP:
        raise _CliError(
            2, f"--max-c above {treedp.DEFAULT_COLOR_CAP} exceeds the tree solver's color cap")
    if args.max_n > exact.DEFAULT_VERTEX_CAP:
        raise _CliError(
            2, f"--max-n above {exact.DEFAULT_VERTEX_CAP} exceeds brute force's vertex cap")
    rows = []
    for i in range(args.count):
        seed = args.seed + i
        rng = instances.SplitMix64(seed)
        n = 1 + rng.below(args.max_n)
        c = 1 + rng.below(args.max_c)
        g = instances.random_tree(n, c, seed)
        t0 = time.perf_counter()
        brute = exact.brute_force_mcs(g)
        millis = int(round((time.perf_counter() - t0) * 1000))
        rows.append((n, c, seed, "brute", brute.size, millis, 0))
        t0 = time.perf_counter()
        cert, _, table = treedp.solve_tree_mcs_detailed(g)
        millis = int(round((time.perf_counter() - t0) * 1000))
        rows.append((n, c, seed, "tree-dp", cert.size, millis, table.size))
    if args.output:
        try:
            fh = open(args.output, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise _CliError(2, f"{args.output}: {exc.strerror or exc}") from None
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "c", "seed", "algo", "size", "millis", "memo_entries"])
        writer.writerows(rows)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _cmd_inspect(args) -> int:
    g = _parse_file(args.file, parse_graph)
    print(f"n={g.n}")
    print(f"m={g.m}")
    print(f"colors={g.c}")
    print(f"connected={'true' if g.is_connected else 'false'}")
    print(f"tree={'true' if g.is_tree else 'false'}")
    print(f"blocks={len(blocks(g))}")
    return 0


# --------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` never changes it."""
    parser = argparse.ArgumentParser(
        prog="consist",
        description="Exact solvers for consistent subsets of vertex-colored graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance to optimality")
    p.add_argument("file", help="graph instance file")
    p.add_argument("--variant", choices=("mcs", "mscs"), default="mcs",
                   help="mcs = some nearest neighbor matches; "
                        "mscs = all nearest neighbors match (default: mcs)")
    p.add_argument("--algo", choices=("auto", "brute", "tree-dp"),
                   default="auto",
                   help="auto picks tree-dp for trees with at most "
                        "--color-cap colors when variant is mcs")
    p.add_argument("--cap", type=int, default=exact.DEFAULT_VERTEX_CAP,
                   help="vertex cap for brute force (default: %(default)s)")
    p.add_argument("--color-cap", type=int, default=treedp.DEFAULT_COLOR_CAP,
                   help="color cap for the tree solver (default: %(default)s)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a subset file against a graph")
    p.add_argument("graph", help="graph instance file")
    p.add_argument("subset", help="subset file ('s <id> ...' lines)")
    p.add_argument("--variant", choices=("mcs", "mscs"), default="mcs",
                   help="which property decides the exit code (default: mcs)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate an instance from a source problem")
    p.add_argument("--reduction", required=True,
                   choices=("ds-mcs", "2sat-tree", "vc-intervals",
                            "sc-mscs", "ds-mscs"),
                   help="instance family to build")
    p.add_argument("input", help="source problem file (graph, cnf, or set cover)")
    p.add_argument("-o", "--output", required=True,
                   help="instance file to write; a .meta sidecar (and for "
                        "vc-intervals a .ccg overlap graph) lands beside it")
    p.add_argument("--M", type=int, default=None,
                   help="2sat-tree: stabilizer pairs per variable (default: n^3)")
    p.add_argument("--p", type=int, default=None,
                   help="vc-intervals: small intervals per gadget (default: n^3)")
    p.add_argument("--q", type=int, default=None,
                   help="vc-intervals: small intervals per gap (default: n^4)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time both solvers on random trees")
    p.add_argument("--suite", choices=("random-trees",), default="random-trees",
                   help="instance suite (only random-trees for now)")
    p.add_argument("--max-n", type=int, default=10,
                   help="vertex counts are uniform in 1..max-n (default: %(default)s)")
    p.add_argument("--max-c", type=int, default=3,
                   help="color counts are uniform in 1..max-c (default: %(default)s)")
    p.add_argument("--count", type=int, default=5,
                   help="number of instances (default: %(default)s)")
    p.add_argument("--seed", type=int, default=1,
                   help="instance i uses seed SEED+i (default: %(default)s)")
    p.add_argument("-o", "--output", default=None,
                   help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("inspect", help="print structural facts about an instance")
    p.add_argument("file", help="graph instance file")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
