"""Reference answers written from scratch, with no code from the library.

These check the library's outputs, so they share nothing with it: they read
plain :class:`shapes.Shape` data and do their own BFS.

* :func:`verdicts` -- one multi-source BFS from the subset carrying colour
  bitmasks along shortest paths; linear time, so it can check the
  3000-vertex graphs of ``verify-large`` during set-up.
* :func:`slow_verdicts` -- one BFS per vertex, in the style of the test
  suite's reference oracle; the self-tests hold :func:`verdicts` to it.
* :func:`path_optimum` -- exact MCS size on a path by a chain DP over
  consecutive chosen vertices; confirms the path shapes' expected optima.
* :func:`minimum_subset` -- enumeration in the library's documented order
  (size, then lexicographic), so its witness must equal the solver's.
"""

from __future__ import annotations

import itertools
from collections import deque


def verdicts(s, subset, adj=None) -> tuple:
    """``(consistent, strict, first_bad, first_bad_strict)`` for ``subset``.

    ``first_bad`` is the smallest vertex without a same-coloured nearest
    member (``None`` if there is none); ``first_bad_strict`` the smallest
    with a nearest member of another colour.  The graph must be connected.
    Pass ``adj`` (from ``s.adjacency()``) to skip rebuilding it.
    """
    if adj is None:
        adj = s.adjacency()
    col = s.colors
    dist = [-1] * (s.n + 1)
    mask = [0] * (s.n + 1)
    queue = deque()
    for v in subset:
        dist[v] = 0
        mask[v] = 1 << col[v]
        queue.append(v)
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                mask[w] = mask[u]
                queue.append(w)
            elif dist[w] == du:
                mask[w] |= mask[u]
    if min(dist[1:]) < 0:
        raise ValueError("graph is not connected")
    bad = [v for v in range(1, s.n + 1) if not mask[v] >> col[v] & 1]
    bad_strict = [v for v in range(1, s.n + 1) if mask[v] != 1 << col[v]]
    return (not bad, not bad_strict,
            bad[0] if bad else None, bad_strict[0] if bad_strict else None)


def slow_verdicts(s, subset) -> tuple:
    """``(consistent, strict)`` by one BFS per vertex."""
    adj = s.adjacency()
    chosen = set(subset)
    consistent = strict = True
    for v in range(1, s.n + 1):
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        best = min(dist[u] for u in chosen)
        nearest = {s.colors[u] for u in chosen if dist[u] == best}
        consistent = consistent and s.colors[v] in nearest
        strict = strict and nearest == {s.colors[v]}
    return consistent, strict


def path_optimum(colors) -> int:
    """Minimum consistent subset size of the path ``1 - 2 - ... - n``.

    ``colors[v]`` for ``v`` in ``1..n`` (index 0 unused).  Between chosen
    neighbours ``a < b`` every vertex nearer to ``a`` must share ``a``'s
    colour, every vertex nearer to ``b`` must share ``b``'s, and a midpoint
    either; the first chosen vertex must sit in the first run and the last
    in the last run.  Shortest valid chain by DP over ``b``.
    """
    n = len(colors) - 1
    run_start = [0] * (n + 2)
    run_end = [0] * (n + 2)
    for v in range(1, n + 1):
        run_start[v] = run_start[v - 1] if v > 1 and colors[v - 1] == colors[v] else v
    for v in range(n, 0, -1):
        run_end[v] = run_end[v + 1] if v < n and colors[v + 1] == colors[v] else v
    inf = n + 1
    best = [inf] * (n + 1)
    for b in range(1, n + 1):
        if run_start[b] == 1:
            best[b] = 1
            continue
        for a in range(b - 1, 0, -1):
            if best[a] + 1 >= best[b]:
                continue
            near_a = (a + b - 1) // 2            # last vertex strictly nearer a
            near_b = (a + b + 2) // 2            # first vertex strictly nearer b
            if run_end[a] < near_a or run_start[b] > near_b:
                continue
            if (a + b) % 2 == 0 and colors[(a + b) // 2] not in (colors[a], colors[b]):
                continue
            best[b] = best[a] + 1
    return min(best[b] for b in range(run_start[n], n + 1))


def _blocks(s, adj) -> list:
    """Maximal connected one-colour vertex sets, as a block index per vertex."""
    block = [-1] * (s.n + 1)
    count = 0
    for v in range(1, s.n + 1):
        if block[v] < 0:
            block[v] = count
            stack = [v]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if block[w] < 0 and s.colors[w] == s.colors[u]:
                        block[w] = count
                        stack.append(w)
            count += 1
    return block


def minimum_subset(s, strict: bool = False) -> tuple:
    """First (strict) consistent subset by size, then lexicographic order.

    Skips subsets that miss a colour: no vertex of that colour could find a
    nearest member of its own colour.  For ``strict`` it also skips subsets
    that miss a block: take the block vertex ``v`` nearest to the subset and
    the next vertex ``u`` on a shortest path to a nearest member ``m``; ``u``
    lies outside the block, so it has another colour, and ``m`` is nearest
    to ``u`` as well, so ``m`` cannot share both colours.
    """
    adj = s.adjacency()
    group = _blocks(s, adj) if strict else list(s.colors)
    need = set(group[1:])
    for k in range(len(need), s.n + 1):
        for combo in itertools.combinations(range(1, s.n + 1), k):
            if {group[v] for v in combo} != need:
                continue
            ok, ok_strict, _, _ = verdicts(s, combo, adj)
            if ok_strict if strict else ok:
                return combo
    raise AssertionError("unreachable: the whole vertex set is consistent")
