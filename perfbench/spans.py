"""Spans around the library's layers, recorded from the benchmark's side.

Nothing under ``src/`` is edited: :func:`wrapped_layers` swaps module
attributes for timing wrappers, at the names the caller looks them up by,
and puts the originals back on exit.  Spans are kept in memory as
``[name, start, end, parent index, op id]`` lists and written out once, at
the end of a traced run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list:
        """Per span: its duration minus the time its direct children cover."""
        out = [end - start for _name, start, end, _parent, _op in self.spans]
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def totals(self, first: int = 0) -> tuple:
        """``(duration, self time)`` summed by span name, from span ``first`` on."""
        selfs = self.self_times()
        dur: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _parent, _op = self.spans[i]
            dur[name] += end - start
            own[name] += selfs[i]
        return dur, own

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


@contextmanager
def wrapped_layers(lib, tracer: Tracer):
    """Wrap the layers' public entry points for the duration of the block.

    ``cli`` reaches the solvers as ``treedp.solve_tree_mcs`` and
    ``exact.brute_force_*`` and the graph layer through names imported into
    its own module; ``treedp._solve`` reaches ``root_tree`` and
    ``reconstruct_witness`` as module globals; ``exact`` calls the checker
    once per candidate as its global ``_consistency_scan``, which is only
    counted, since a span per candidate would cost more than the call.
    """
    td, ex, cli = lib.treedp, lib.exact, lib.cli
    witness = td.reconstruct_witness
    scan = ex._consistency_scan

    def traced_witness(tree, key, table):
        with tracer.span("trace.count"):
            tracer.counts["treedp.memo_keys"] += table.size
            peak = max(table.sizes_by_prefix().values(), default=0)
            tracer.counts["treedp.max_prefix_keys"] = max(
                tracer.counts["treedp.max_prefix_keys"], peak)
        with tracer.span("treedp.witness"):
            return witness(tree, key, table)

    candidates = [0]

    def counted_scan(g, members, strict):
        candidates[0] += 1
        return scan(g, members, strict)

    def checker(fn):
        traced = tracer.wrap("graph.check", fn)

        def counted(g, subset):
            tracer.counts["graph.check_vertices"] += g.n
            return traced(g, subset)
        return counted

    swaps = [
        (td, "solve_tree_mcs", tracer.wrap("treedp.solve", td.solve_tree_mcs)),
        (td, "root_tree", tracer.wrap("treedp.root", td.root_tree)),
        (td, "reconstruct_witness", traced_witness),
        (ex, "brute_force_mcs", tracer.wrap("exact.brute", ex.brute_force_mcs)),
        (ex, "brute_force_mscs", tracer.wrap("exact.brute", ex.brute_force_mscs)),
        (ex, "_consistency_scan", counted_scan),
        (cli, "parse_graph", tracer.wrap("graph.parse", cli.parse_graph)),
        (cli, "is_consistent", checker(cli.is_consistent)),
        (cli, "is_strict_consistent", checker(cli.is_strict_consistent)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in swaps]
    for mod, name, fn in swaps:
        setattr(mod, name, fn)
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
        tracer.counts["exact.candidates"] += candidates[0]
