"""Brute-force exact solvers.

Minimum (strict) consistent subsets are found by enumerating candidate
subsets in increasing cardinality and, within one cardinality, in
lexicographic order of the sorted vertex tuple; the first subset that
passes the consistency test is returned.

A subset is a bitmask over vertex ids, and the test reads tables built once
per solve by growing every vertex's balls together (at most n masks of n +
1 bits per vertex, affordable under the enumeration cap): each vertex's
distance layers as vertex masks, and the mask of its own color class.  A
vertex's nearest members are the first layer that meets the subset, so the
subset is consistent when, for every vertex, that layer meets its own
class, and strict consistent when it lies inside it.

One cardinality k is enumerated by a depth-first walk over ascending
vertex tuples.  The walk keeps its ``(next vertex, prefix mask, missed
groups, sibling, bound)`` frames on an explicit stack, so it never
recurses.  A frame stands for the node ``chosen = prefix | v``, and
``left = k - |chosen|`` picks remain after it.  A prefix ``chosen`` whose
last pick is ``v`` can only be completed by a set ``T`` of vertices after
``v``, the mask ``future``; the prefix is dropped, with every completion,
as soon as no completion can pass.  A frame with ``left == 0`` is no node
but a chain: the full tuples ``prefix | u`` for every ``u`` from ``v`` on,
which the walk settles at once.  Since only tuples that cannot pass are
skipped, the first passing tuple, the optimum and the witness are those of
plain enumeration.

Three tests drop prefixes:

- Groups.  A consistent subset contains a vertex of every nonempty color
  class, and a strict consistent subset meets every block.  These groups
  are disjoint, so every group the prefix misses must meet ``future``, and
  the missed groups may not outnumber the picks left.  The frame carries
  the missed groups as a mask, one bit per group, and picking ``v`` clears
  the bit of ``v``'s group.  One table per solve lists, for each ``v``,
  the groups whose largest vertex is ``v`` or earlier.  A missed group
  among them fails the sibling ``v + 1`` and every later one, so the walk
  then pushes no sibling frame.  That check is the one that matters: every
  frame is pushed past it, so each group a frame misses has a vertex at
  ``v`` or later, every missed group but ``v``'s own meets ``future``, and
  the test left at a node is the count, O(1) per prefix.
- Layers.  At a vertex, let ``s`` be the first layer that meets
  ``chosen``, ``hit`` what it meets and ``own`` the vertex's color class;
  the own-color vertices of ``future`` are its rescuers.  In ``S = chosen
  | T`` the vertex's nearest layer is ``s`` or an earlier one, whose
  members come from ``T``.  Under MCS, when ``hit`` holds no own-color
  vertex, the vertex passes only if ``T`` holds a rescuer within distance
  ``s``; under MSCS, when ``hit`` holds an other-color vertex, the nearest
  layer must lie before ``s`` and hold own-color vertices only, so ``T``
  holds a rescuer nearer than ``s``.  Those rescuers are the vertex's
  rescue set, and the prefix fails for every ``T`` when one is empty.  A
  vertex whose ``hit`` is of neither kind passes with ``T`` empty, so with
  ``future`` empty this is the exact test of the subset ``chosen``.  The
  test is a conjunction over the vertices, so the order in which it scans
  them changes only its cost.
- Rescues.  ``T`` meets every rescue set.  A rescue set of one vertex
  forces that vertex, and rescue sets that are disjoint from one another
  and from the forced vertices each need a further vertex of ``T``.  So
  the forced vertices, plus the sets counted greedily, smallest first,
  while each stays disjoint from the forced vertices and the sets already
  counted, are a lower bound on ``|T|``, and a prefix whose bound exceeds
  the picks it has left has no completion of this size.  Each vertex's
  scan stops at ``s``, or at the layer where it has met two rescuers: the
  vertex then gives no set, which only weakens the bound.  A scan run on
  to ``s`` would visit up to the whole of a deep graph's layers at every
  row of every test.  One scan gives both tests: the layer test is the
  bound's -1.

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
one-vertex subsets.  A vertex of ``prefix`` is its own only nearest
member and allows every pick, so its row is skipped, as in the rescue
scan.  Group cuts are implied and not needed.

The walks of successive sizes share their work.  ``future`` depends on
``v`` alone, so a node's verdicts change with k only through ``left``,
which grows by one from each size to the next.  A node is cut for good,
at this size and every larger one, when it has no room (``v + left > n``)
or when the layer test fails.  It is cut for this size only when it misses
more groups than it has picks left, or when its rescue bound exceeds them;
the frame carries the bound, so the next size compares it again and does
not recompute it.  A chain is cut for this size when none of its tuples
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
meets the same tuples in the same order.  It follows too that the rescue
bound of a node and the mask of a chain each run at most once per solve.
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


def _layers_bound(table, chosen: int, strict: bool, future: int) -> int:
    """A lower bound on ``|T|`` over every ``T`` within vertex mask
    ``future`` for which ``chosen | T`` passes at every vertex, or -1 when
    no such ``T`` exists (see the module docstring).  ``table`` holds one
    ``(layers, own)`` pair per vertex.  With ``future == 0`` the result is
    exact: 0 when the subset ``chosen`` itself passes, else -1.

    A row that gives -1 moves to the front of ``table``: the next prefix
    tends to fail at the same vertex, and the row order changes only the
    cost."""
    forced = 0  # the rescue sets of one vertex each, ORed together
    sets = []  # the larger rescue sets
    for row in table:
        layers, own = row
        if layers[0] & chosen:
            continue  # the vertex is its own nearest member
        rescue = own & future
        met = 0  # the rescuers in the layers ahead of this one
        for layer in layers:
            hit = layer & chosen
            if hit:
                break
            got = layer & rescue
            if got:
                if met or got & (got - 1):
                    break  # two rescuers: the vertex gives no set
                met = got
        if not hit:
            continue
        if strict:
            if not hit & ~own:
                continue
        elif hit & own:
            continue
        else:
            met |= layer & rescue
        if not met:
            if row is not table[0]:
                table.remove(row)
                table.insert(0, row)
            return -1
        if met & (met - 1):
            sets.append(met)
        else:
            forced |= met
    bound = forced.bit_count()
    sets.sort(key=int.bit_count)
    for need in sets:
        if not need & forced:
            forced |= need
            bound += 1
    return bound


def _last_picks(table, chosen: int, strict: bool, future: int) -> int:
    """The mask of every vertex ``u`` in ``future`` for which the subset
    ``chosen | 1 << u`` passes at every vertex (see the module docstring);
    ``table`` is as for ``_layers_bound``, and ``chosen`` and ``future`` are
    disjoint.  A row that empties the mask moves to the front of ``table``,
    as in ``_layers_bound``."""
    for row in table:
        layers, own = row
        if layers[0] & chosen:
            continue  # the vertex is its own nearest member: any pick passes
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
    """One ``(layers, own)`` pair per vertex, in vertex order: its distance
    layers and its color class, as vertex masks.

    All balls grow together, a radius a round: the ball of radius r around
    ``v`` is the union of the radius r - 1 balls around ``v`` and its
    neighbours, and layer r is what it adds.  A ball that stops growing
    holds the whole (connected) graph."""
    vertices = range(1, g.n + 1)
    adj = g.adjacency
    classes: dict[int, int] = {}
    for v in vertices:
        classes[g.color[v]] = classes.get(g.color[v], 0) | 1 << v
    table = [([1 << v], classes[g.color[v]]) for v in vertices]
    ball = [1 << v for v in range(g.n + 1)]
    growing = vertices
    while growing:
        grown = []
        wider = ball[:]
        for v in growing:
            old = ball[v]
            new = old
            for w in adj[v]:
                new |= ball[w]
            if new != old:
                # not new & ~old, which CPython 3.11 stores wider: 134 MB
                # against 105 MB for a 1,100-vertex path's table
                # (tracemalloc)
                table[v - 1][0].append(new - old)
                wider[v] = new
                grown.append(v)
        ball = wider
        growing = grown
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
    group = ({u: i for i, part in enumerate(blocks(g)) for u in part}
             if strict else g.color)
    gbit = [0] + [1 << group[u] for u in vertices]
    gone = [0] * (g.n + 1)
    groups = 0
    for v in reversed(vertices):
        gone[v] = ~groups
        groups |= gbit[v]
    full = (2 << g.n) - 2
    # frames (next vertex, prefix mask, missed groups, sibling, rescue bound
    # or None until tested): the walk of one size starts from the frames the
    # walk of the size before cut short, in walk order
    frontier = [(1, 0, groups, True, None)]
    for k in range(max(1, groups.bit_count()), g.n + 1):
        # ascending tuples come off the stack in the order of vertex tuples
        frontier.reverse()
        stack, frontier = frontier, []
        while stack:
            frame = stack.pop()
            v, prefix, missed, sibling, bound = frame
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
                stack.append((v + 1, prefix, missed, True, None))
            miss = missed & ~gbit[v]
            if miss.bit_count() > left:
                # too many missed groups: the frame may pass at the next size
                frontier.append((v, prefix, missed, False, bound))
                continue
            if bound is None:
                bound = _layers_bound(table, prefix | 1 << v, strict, full & -(2 << v))
            if bound > left:
                # more rescues needed than picks left: the frame, carrying
                # its bound, may pass at the next size
                frontier.append((v, prefix, missed, False, bound))
            elif bound >= 0:
                stack.append((v + 1, prefix | 1 << v, miss, True, None))
            # a failing layer test, -1, fails with any larger left too
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
