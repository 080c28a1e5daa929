"""Brute-force exact solvers.

Minimum (strict) consistent subsets are found by enumerating candidate
subsets in increasing cardinality and, within one cardinality, in
lexicographic order of the sorted vertex tuple; the first subset that
passes the consistency test is returned.  Two sound prunes keep the search
small without changing the reported optimum or witness: a consistent subset
must contain a vertex of every nonempty color class, and a strict
consistent subset must meet every block.  Subsets failing the applicable
test never pass and are skipped.

A subset is a bitmask over vertex ids, and the test reads tables built once
per solve with one BFS per vertex (O(n^2) bits, affordable under the
enumeration cap): each vertex's distance layers as vertex masks, and the
mask of its own color class.  A vertex's nearest members are the first
layer that meets the subset, so the subset is consistent when, for every
vertex, that layer meets its own class, and strict consistent when it lies
inside it.  The witness is checked once more with the graph module's BFS
checker before it is returned, and a disagreement raises
``AssertionError``.

The module also carries tiny enumeration oracles for minimum dominating
set, vertex cover, and set cover, which the instance generators and their
tests use as ground truth.
"""

from __future__ import annotations

import itertools

from .graph import (Certificate, ColoredGraph, PreconditionError,
                    _consistency_scan, blocks)

#: Default vertex cap for subset enumeration; override explicitly when a
#: caller knowingly accepts exponential blow-up.
DEFAULT_VERTEX_CAP = 20


def _layers_pass(table, chosen: int, strict: bool) -> bool:
    """Does the subset with vertex mask ``chosen`` pass at every vertex?
    ``table`` holds one ``(layers, own)`` pair per vertex."""
    for layers, own in table:
        for layer in layers:
            hit = layer & chosen
            if hit:
                break
        if hit & ~own if strict else not hit & own:
            return False
    return True


def _minimum_certificate(g: ColoredGraph, variant: str, cap: int) -> Certificate:
    if g.n > cap:
        raise PreconditionError(
            f"graph has {g.n} vertices, enumeration cap is {cap}")
    if not g.is_connected:
        raise PreconditionError("graph must be connected")
    strict = variant == "mscs"
    vertices = range(1, g.n + 1)
    classes: dict[int, int] = {}
    for v in vertices:
        classes[g.color[v]] = classes.get(g.color[v], 0) | 1 << v
    groups = ([sum(1 << v for v in part) for part in blocks(g).partition]
              if strict else list(classes.values()))
    table = []
    for v in vertices:
        row = g.hops_from(v)
        layers = [0] * (max(row[1:]) + 1)
        for u in vertices:
            layers[row[u]] |= 1 << u
        table.append((layers, classes[g.color[v]]))
    # combinations of ascending bits come in the order of vertex tuples
    for k in range(max(1, len(groups)), g.n + 1):
        for combo in itertools.combinations([1 << v for v in vertices], k):
            chosen = sum(combo)
            for group in groups:
                if not chosen & group:
                    break
            else:
                if _layers_pass(table, chosen, strict):
                    witness = tuple(v for v in vertices if chosen >> v & 1)
                    if not _consistency_scan(g, witness, strict):
                        raise AssertionError(
                            f"layer-mask test and checker disagree on {witness}")
                    return Certificate(variant, witness, k, "brute-force-optimal")
    raise AssertionError("unreachable: the full vertex set is always consistent")


def brute_force_mcs(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP) -> Certificate:
    """Smallest consistent subset of a connected graph, by enumeration."""
    return _minimum_certificate(g, "mcs", cap)


def brute_force_mscs(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP) -> Certificate:
    """Smallest strict consistent subset of a connected graph."""
    return _minimum_certificate(g, "mscs", cap)


def min_dominating_set(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP):
    """``(size, witness)`` of a minimum dominating set; colors ignored."""
    if g.n > cap:
        raise PreconditionError(
            f"graph has {g.n} vertices, enumeration cap is {cap}")
    closed = [0] * (g.n + 1)
    for v in range(1, g.n + 1):
        mask = 1 << v
        for w in g.neighbors(v):
            mask |= 1 << w
        closed[v] = mask
    targets = closed[1:]
    vertices = range(1, g.n + 1)
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(vertices, k):
            smask = 0
            for v in combo:
                smask |= 1 << v
            if all(t & smask for t in targets):
                return k, combo
    raise AssertionError("unreachable: V dominates itself")


def min_vertex_cover(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP):
    """``(size, witness)`` of a minimum vertex cover; colors ignored."""
    if g.n > cap:
        raise PreconditionError(
            f"graph has {g.n} vertices, enumeration cap is {cap}")
    edge_list = sorted(g.edges)
    vertices = range(1, g.n + 1)
    for k in range(0, g.n + 1):
        for combo in itertools.combinations(vertices, k):
            chosen = set(combo)
            if all(u in chosen or w in chosen for u, w in edge_list):
                return k, combo
    raise AssertionError("unreachable: V covers every edge")


def min_set_cover(sc, cap: int = DEFAULT_VERTEX_CAP):
    """``(size, witness)`` with witness holding 1-based set indices.

    ``sc`` needs ``n`` (element count) and ``sets`` (iterables of elements).
    """
    m = len(sc.sets)
    if m > cap:
        raise PreconditionError(f"{m} sets exceeds enumeration cap {cap}")
    masks = [sum(1 << (e - 1) for e in s) for s in sc.sets]
    universe = (1 << sc.n) - 1
    for k in range(0, m + 1):
        for combo in itertools.combinations(range(m), k):
            got = 0
            for i in combo:
                got |= masks[i]
            if got == universe:
                return k, tuple(i + 1 for i in combo)
    raise PreconditionError("the union of the sets does not cover the universe")

