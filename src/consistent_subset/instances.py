"""Seed-deterministic random instances.

Everything here is a pure function of its integer seed, driven by a
splitmix-style 64-bit generator, so corpora and benchmark rows reproduce
bit-for-bit across runs and platforms (the stdlib Mersenne Twister makes
no such cross-version promise for its distribution helpers).

Trees are decoded from uniformly random Prüfer sequences, so every labeled
tree on ``n`` vertices is equally likely.  Bounded draws use plain modulo
reduction; the bias is irrelevant at these ranges and keeping the mapping
trivial is part of the determinism contract.
"""

from __future__ import annotations

import heapq

from .graph import ColoredGraph
from .reductions import SetCoverInstance, TwoSatFormula

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The classic 64-bit splitmix stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in ``0..bound-1`` (plain modulo reduction)."""
        return self.next() % bound

    def flip(self) -> int:
        return self.next() & 1


def _prufer_edges(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    seq = [rng.below(n) + 1 for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w) if u < w else (w, u))
    return edges


def _random_colors(n: int, c: int, rng: SplitMix64) -> list[int]:
    return [rng.below(c) + 1 for _ in range(n)]


def _at_least(low: int, **counts: int) -> None:
    """Reject a count below ``low`` before the first draw."""
    for name, value in counts.items():
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


def random_tree(n: int, c: int, seed: int) -> ColoredGraph:
    """Uniformly random labeled tree with i.i.d. uniform colors."""
    _at_least(1, n=n, c=c)
    rng = SplitMix64(seed)
    edges = _prufer_edges(n, rng)
    return ColoredGraph(n, c, edges, _random_colors(n, c, rng))


def random_connected_graph(n: int, c: int, seed: int) -> ColoredGraph:
    """Random tree plus each remaining vertex pair with probability 1/2."""
    _at_least(1, n=n, c=c)
    rng = SplitMix64(seed)
    edges = set(_prufer_edges(n, rng))
    for u in range(1, n + 1):
        for w in range(u + 1, n + 1):
            if (u, w) not in edges and rng.flip():
                edges.add((u, w))
    return ColoredGraph(n, c, edges, _random_colors(n, c, rng))


def random_set_cover(n: int, m: int, seed: int) -> SetCoverInstance:
    """Random covering system: membership coin flips, gaps patched randomly."""
    _at_least(1, n=n, m=m)
    rng = SplitMix64(seed)
    sets = [set() for _ in range(m)]
    for j in range(m):
        for e in range(1, n + 1):
            if rng.flip():
                sets[j].add(e)
    for e in range(1, n + 1):
        if not any(e in s for s in sets):
            sets[rng.below(m)].add(e)
    return SetCoverInstance(n, tuple(frozenset(s) for s in sets))


def random_two_sat(n: int, m: int, seed: int) -> TwoSatFormula:
    """``m`` random 2-literal clauses over ``n`` variables."""
    _at_least(1, n=n)
    _at_least(0, m=m)
    rng = SplitMix64(seed)
    clauses = []
    for _ in range(m):
        a = (rng.below(n) + 1, bool(rng.flip()))
        b = (rng.below(n) + 1, bool(rng.flip()))
        clauses.append((a, b))
    return TwoSatFormula(n, tuple(clauses))
