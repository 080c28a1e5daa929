"""Brute-force exact solvers.

Minimum (strict) consistent subsets are found by enumerating candidate
subsets in increasing cardinality and, within one cardinality, in
lexicographic order of the sorted vertex tuple; the first subset that
passes the consistency test is returned.

A subset is a bitmask over vertex ids, and the test reads tables built once
per solve with one BFS per vertex (at most n masks of n + 1 bits per
vertex, affordable under the enumeration cap): each vertex's distance
layers as vertex masks, and the mask of its own color class.  A vertex's
nearest members are the first layer that meets the subset, so the subset
is consistent when, for every vertex, that layer meets its own class, and
strict consistent when it lies inside it.

One cardinality k is enumerated by a depth-first walk over ascending
vertex tuples.  The walk keeps its ``(next vertex, prefix mask, missed
groups, sibling)`` frames on an explicit stack, so it never recurses.  A
frame stands for the node ``chosen = prefix | v``, and ``left = k -
|chosen|`` picks remain after it.  A prefix ``chosen`` whose last pick is
``v`` can only be completed by a set ``T`` of vertices after ``v``, the
mask ``future``; the prefix is dropped, with every completion, as soon as
no completion can pass.  A frame with ``left == 0`` is no node but a
chain: the full tuples ``prefix | u`` for every ``u`` from ``v`` on, which
the walk settles at once.  Since only tuples that cannot pass are skipped,
the first passing tuple, the optimum and the witness are those of plain
enumeration.

Two tests drop prefixes:

- Groups.  A consistent subset contains a vertex of every nonempty color
  class, and a strict consistent subset meets every block.  These groups
  are disjoint, so every group the prefix misses must meet ``future``, and
  the missed groups may not outnumber the picks left.  The frame carries
  the missed groups as a mask, one bit per group.  Picking ``v`` clears the
  bit of ``v``'s group, and a missed group fails to meet ``future`` exactly
  when its largest vertex is ``v`` or earlier; one table per solve lists
  those groups for each ``v``, so the test is O(1) per prefix.  A missed
  group with no vertex after ``v`` fails every later sibling too, so the
  walk then pushes no sibling frame.
- Layers.  In ``S = chosen | T`` a vertex's nearest layer lies at or
  before the first layer meeting ``chosen``, and any member of ``S`` nearer
  than that layer comes from ``T``.  So each vertex's scan stops at the
  first layer that meets ``chosen`` or an own-color vertex of ``future``.
  No layer before the stop holds an own-color vertex of ``future``, so
  those layers offer ``T`` only other-color vertices.  Under MCS the
  vertex fails for every ``T`` when the stopping layer holds no own-color
  vertex of ``chosen`` or ``future``; under MSCS it fails when that layer
  holds an other-color vertex of ``chosen``.  Either way the nearest layer
  of ``S`` is an earlier one, met by other-color vertices of ``T`` only, or
  the stopping layer itself.  With ``future`` empty this is the exact test
  of the subset ``chosen``.  The test is a conjunction over the vertices,
  so the order in which it scans them changes only its cost.

A chain is exact, not a cut: one pass over the layer tables gives the mask
of every last pick ``u`` whose tuple passes.  At a vertex, let ``s`` be the
first layer that meets ``prefix``, ``hit`` what it meets and ``before``
the union of the layers ahead of ``s``.  A pick in ``before`` is the
vertex's only nearest member, a pick in layer ``s`` joins ``hit``, and a
later pick leaves ``hit`` the nearest members.  So under MCS the vertex
allows ``~(before & ~own)`` when ``hit`` meets its class ``own``, and
``(before | layer s) & own`` otherwise; under MSCS it allows ``before &
own`` when ``hit`` holds an other-color vertex, and ``~((before | layer s)
& ~own)`` otherwise.  The tuples that pass are the bits of the AND of
these masks over every vertex, so the lowest bit is the first passing
tuple of the chain.  An empty ``prefix`` meets no layer, ``before`` is the
whole graph, and each vertex allows its own class: the test of the
one-vertex subsets.  Group cuts are implied and not needed.

The walks of successive sizes share their work.  ``future`` depends on
``v`` alone, so a node's verdicts change with k only through ``left``,
which grows by one from each size to the next.  A node is cut for good,
at this size and every larger one, when it has no room (``v + left >
n``), when a missed group has no vertex after ``v``, or when the layer
test fails.  It is cut for this size only when it misses more groups than
it has picks left; a chain is cut for this size when none of its tuples
passes.  The size cuts, in walk order, are the frontier that the walk of
the next size starts from.  A frontier node pushes no sibling: the earlier
walk pushed it already.  A frontier chain keeps ``sibling = True``: at the
next size its prefix has two picks left, and it is the run of sibling
nodes ``prefix | u``, from ``u = v`` on, that its masked tuples have
become, which no walk has expanded yet and which the sibling pushes and
cuts walk in order.

So the first passing tuple cannot move.  A walk from the empty prefix
meets the full tuples that survive the cuts in lexicographic order, a
chain at a time, since a chain is a run of consecutive tuples and the
stack puts each node's subtree before its next sibling.  At size k + 1
each node that such a walk would test was expanded at an earlier size
with the same verdict, is a frontier node, was a tuple of a frontier
chain, or lies below one of these.  A node expanded at size k is expanded
again at k + 1 unless it has lost its room, and then none of its
descendants has room either, since ``v + left`` never falls from a node
to its children or later siblings.  A tuple of a chain with a passing
tuple cannot occur at size k + 1, since the walk of size k returned.  The
frontier is in lexicographic order, no frontier entry lies below another,
and the stack puts each entry's subtree, and each node of a chain with
its own subtree, before the next entry; so the walk from the frontier
meets the same tuples in the same order.  It follows too that the layer
test of a node and the mask of a chain each run at most once per solve.
The price is memory: the frontier holds every node and chain that a size
cut short.

The witness is checked once more with the graph module's BFS checker
before it is returned, and a disagreement raises ``AssertionError``.

The module also carries tiny enumeration oracles for minimum dominating
set, vertex cover, and set cover, which the instance generators and their
tests use as ground truth.  All three run one smallest-cover enumeration
over a bit mask per candidate: its closed neighbourhood, its incident
edges, or the set.
"""

from __future__ import annotations

import itertools

from .graph import (Certificate, ColoredGraph, PreconditionError,
                    _consistency_scan, blocks)

#: Default vertex cap for subset enumeration; override explicitly when a
#: caller knowingly accepts exponential blow-up.
DEFAULT_VERTEX_CAP = 20


def _layers_pass(table, chosen: int, strict: bool, future: int) -> bool:
    """Can ``chosen | T`` pass at every vertex for some ``T`` within vertex
    mask ``future``?  ``table`` holds one ``(layers, own)`` pair per vertex.

    False proves that no such ``T`` exists (see the module docstring); True
    promises nothing unless ``future == 0``, where the test is exact: does
    the subset ``chosen`` itself pass.

    A failing row moves to the front of ``table``: the next prefix tends to
    fail at the same vertex, and the row order changes only the cost."""
    for row in table:
        layers, own = row
        for layer in layers:
            hit = layer & chosen
            if hit or layer & own & future:
                break
        if hit & ~own if strict else not (hit | layer & future) & own:
            if row is not table[0]:
                table.remove(row)
                table.insert(0, row)
            return False
    return True


def _last_picks(table, chosen: int, strict: bool, future: int) -> int:
    """The mask of every vertex ``u`` in ``future`` for which the subset
    ``chosen | 1 << u`` passes at every vertex (see the module docstring);
    ``table`` is as for ``_layers_pass``, and ``chosen`` and ``future`` are
    disjoint.  A row that empties the mask moves to the front of ``table``,
    as in ``_layers_pass``."""
    for row in table:
        layers, own = row
        before = 0
        for layer in layers:
            hit = layer & chosen
            if hit:
                break
            before |= layer
        if strict:
            future &= before & own if hit & ~own else ~((before | layer) & ~own)
        else:
            future &= ~(before & ~own) if hit & own else (before | layer) & own
        if not future:
            if row is not table[0]:
                table.remove(row)
                table.insert(0, row)
            return 0
    return future


def _layer_table(g: ColoredGraph) -> list:
    """One ``(layers, own)`` pair per vertex: its distance layers and its
    color class, as vertex masks."""
    vertices = range(1, g.n + 1)
    classes: dict[int, int] = {}
    for v in vertices:
        classes[g.color[v]] = classes.get(g.color[v], 0) | 1 << v
    table = []
    for v in vertices:
        row = g.hops_from(v)
        layers = [0] * (max(row[1:]) + 1)
        for u in vertices:
            layers[row[u]] |= 1 << u
        table.append((layers, classes[g.color[v]]))
    return table


def _vertex_cap(g: ColoredGraph, cap: int) -> None:
    if g.n > cap:
        raise PreconditionError(
            f"graph has {g.n} vertices, enumeration cap is {cap}")


def _minimum_certificate(g: ColoredGraph, variant: str, cap: int) -> Certificate:
    _vertex_cap(g, cap)
    if not g.is_connected:
        raise PreconditionError("graph must be connected")
    strict = variant == "mscs"
    vertices = range(1, g.n + 1)
    table = _layer_table(g)
    # one bit per group: gbit[u] is the bit of u's group, and gone[v] has
    # the bits of the groups with no vertex after v
    group = blocks(g).block_of if strict else g.color
    gbit = [0] + [1 << group[u] for u in vertices]
    gone = [0] * (g.n + 1)
    groups = 0
    for v in reversed(vertices):
        gone[v] = ~groups
        groups |= gbit[v]
    full = (2 << g.n) - 2
    # frames (next vertex, prefix mask, missed groups, sibling): the walk of
    # one size starts from the frames the walk of the size before cut short,
    # in walk order
    frontier = [(1, 0, groups, True)]
    for k in range(max(1, groups.bit_count()), g.n + 1):
        # ascending tuples come off the stack in the order of vertex tuples
        frontier.reverse()
        stack, frontier = frontier, []
        while stack:
            frame = stack.pop()
            v, prefix, missed, sibling = frame
            left = k - prefix.bit_count() - 1  # picks still to make after v
            if not left:
                # a chain: v and every later vertex as the last pick of prefix
                picks = _last_picks(table, prefix, strict, full & -(1 << v))
                if picks:
                    chosen = prefix | picks & -picks
                    witness = tuple(u for u in vertices if chosen >> u & 1)
                    if not _consistency_scan(g, witness, strict):
                        raise AssertionError(
                            f"layer-mask test and checker disagree on {witness}")
                    return Certificate(variant, witness, k, "brute-force-optimal")
                frontier.append(frame)  # no last pick passes at this size
                continue
            if v + left > g.n:
                continue  # no room, for v or any later sibling
            # a frontier frame's siblings were walked at an earlier size, and
            # a missed group with no vertex after v fails every later sibling
            if sibling and not missed & gone[v]:
                stack.append((v + 1, prefix, missed, True))
            miss = missed & ~gbit[v]
            if miss & gone[v]:
                continue
            if miss.bit_count() > left:
                # too many missed groups: the frame may pass at the next size
                frontier.append((v, prefix, missed, False) if sibling else frame)
            elif _layers_pass(table, prefix | 1 << v, strict, full & -(2 << v)):
                stack.append((v + 1, prefix | 1 << v, miss, True))
            # a failing layer test fails with any larger left too
    raise AssertionError("unreachable: the full vertex set is always consistent")


def brute_force_mcs(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP) -> Certificate:
    """Smallest consistent subset of a connected graph, by enumeration."""
    return _minimum_certificate(g, "mcs", cap)


def brute_force_mscs(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP) -> Certificate:
    """Smallest strict consistent subset of a connected graph."""
    return _minimum_certificate(g, "mscs", cap)


def _smallest_cover(masks: list, universe: int):
    """``(size, witness)`` of the first candidate tuple, in (size,
    lexicographic) order, whose masks unite to ``universe``; the witness
    holds 1-based candidate indices.  ``None`` when no tuple does."""
    candidates = range(len(masks))
    for k in range(len(masks) + 1):
        for combo in itertools.combinations(candidates, k):
            got = 0
            for i in combo:
                got |= masks[i]
            if got == universe:
                return k, tuple(i + 1 for i in combo)
    return None


def min_dominating_set(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP):
    """``(size, witness)`` of a minimum dominating set; colors ignored."""
    _vertex_cap(g, cap)
    closed = []
    for v in range(1, g.n + 1):
        mask = 1 << v
        for w in g.neighbors(v):
            mask |= 1 << w
        closed.append(mask)
    return _smallest_cover(closed, (2 << g.n) - 2)


def min_vertex_cover(g: ColoredGraph, cap: int = DEFAULT_VERTEX_CAP):
    """``(size, witness)`` of a minimum vertex cover; colors ignored."""
    _vertex_cap(g, cap)
    incident = [0] * g.n
    for e, (u, w) in enumerate(g.edges):
        incident[u - 1] |= 1 << e
        incident[w - 1] |= 1 << e
    return _smallest_cover(incident, (1 << len(g.edges)) - 1)


def min_set_cover(sc, cap: int = DEFAULT_VERTEX_CAP):
    """``(size, witness)`` with witness holding 1-based set indices.

    ``sc`` needs ``n`` (element count) and ``sets`` (iterables of elements).
    """
    m = len(sc.sets)
    if m > cap:
        raise PreconditionError(f"{m} sets exceeds enumeration cap {cap}")
    best = _smallest_cover([sum(1 << (e - 1) for e in s) for s in sc.sets],
                           (1 << sc.n) - 1)
    if best is None:
        raise PreconditionError("the union of the sets does not cover the universe")
    return best
