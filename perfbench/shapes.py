"""Seeded instance shapes for the benchmark.

Every builder is a pure function of its parameters and a ``SplitMix64``
stream, and returns a plain :class:`Shape` (no library objects), so the
reference checkers in ``refcheck.py`` can read it without touching the code
under test.  Vertex ids follow the shape (a path is numbered end to end, a
spider from its centre outward), and the tree solver roots at vertex 1, so
paths and caterpillars are rooted at an end: the tallest rooting, which is
what drives the DP's distance ranges and its recursion depth.

Why each shape:

* ``runs_path`` -- two colours in long runs.  Every vertex of a run can see
  the far end of its run, so the DP's inside/outside distances range over
  the run length; memo keys grow with it.
* ``alternating_path`` -- colours alternate, so every vertex is in the
  optimum; ``din`` ranges over the full height and memo keys grow as n^2.
* ``caterpillar`` -- a runs-path spine with pendant leaves, a few leaves in
  the other colour: long distances plus branching at every spine vertex.
* ``spider`` -- legs that are runs-paths joined at one centre: deep subtrees
  whose splits meet at a single high-degree vertex.
* Prüfer trees (``instances.random_tree``) -- the library's own uniform
  random trees; their height is about sqrt(n), the shallow contrast.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple


class Shape(NamedTuple):
    """A vertex-coloured simple graph on ``1..n``.

    ``colors[v]`` is the colour of ``v`` (index 0 is padding); ``edges``
    holds ``(u, w)`` pairs with ``u < w``, sorted.
    """

    n: int
    c: int
    colors: tuple
    edges: tuple

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.n + 1)]
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        return adj


def make_shape(n: int, colors, edges) -> Shape:
    cols = (0, *colors)
    if len(cols) != n + 1:
        raise ValueError(f"expected {n} colours, got {len(cols) - 1}")
    norm = sorted((u, w) if u < w else (w, u) for u, w in edges)
    return Shape(n, max(cols[1:]), cols, tuple(norm))


def from_graph(g) -> Shape:
    """Copy a library ``ColoredGraph`` into a plain shape."""
    return Shape(g.n, g.c, tuple(g.color), tuple(sorted(g.edges)))


def ccg_text(s: Shape) -> str:
    """The CCG file for ``s``: header, colours ascending, sorted edges."""
    lines = [f"p ccg {s.n} {len(s.edges)} {s.c}"]
    lines.extend(f"v {v} {s.colors[v]}" for v in range(1, s.n + 1))
    lines.extend(f"e {u} {w}" for u, w in s.edges)
    return "\n".join(lines) + "\n"


def subset_text(ids) -> str:
    return "s " + " ".join(str(v) for v in sorted(ids)) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def height(s: Shape, root: int = 1) -> int:
    """Eccentricity of ``root``: the tree solver's recursion depth driver."""
    adj = s.adjacency()
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return max(dist.values())


# --------------------------------------------------------------------------
# colourings and trees

def run_colors(length: int, lo: int, hi: int, rng, c: int = 2) -> list:
    """``length`` colours in runs of ``lo..hi``, cycling through ``1..c``."""
    out: list = []
    col = 1 + rng.below(c)
    while len(out) < length:
        out.extend([col] * (lo + rng.below(hi - lo + 1)))
        col = col % c + 1
    return out[:length]


def _path_edges(first: int, length: int) -> list:
    return [(v, v + 1) for v in range(first, first + length - 1)]


def runs_path(n: int, lo: int, hi: int, rng) -> Shape:
    return make_shape(n, run_colors(n, lo, hi, rng), _path_edges(1, n))


def alternating_path(n: int, rng) -> Shape:
    start = rng.below(2)
    return make_shape(n, [1 + (start + v) % 2 for v in range(n)],
                      _path_edges(1, n))


def caterpillar(spine: int, lo: int, hi: int, rng) -> Shape:
    """Spine ``1..spine`` coloured in runs; 0-2 leaves per spine vertex,
    each in its spine vertex's colour except with probability 1/4."""
    colors = run_colors(spine, lo, hi, rng)
    edges = _path_edges(1, spine)
    for v in range(1, spine + 1):
        for _ in range(rng.below(3)):
            leaf = len(colors) + 1
            own = colors[v - 1]
            colors.append(own if rng.below(4) else 3 - own)
            edges.append((v, leaf))
    return make_shape(len(colors), colors, edges)


def spider(legs: int, leg_lo: int, leg_hi: int, lo: int, hi: int, rng) -> Shape:
    """Centre 1 plus ``legs`` paths of ``leg_lo..leg_hi`` vertices, each leg
    coloured in runs of ``lo..hi`` outward from the centre."""
    colors = [1 + rng.below(2)]
    edges = []
    for _ in range(legs):
        length = leg_lo + rng.below(leg_hi - leg_lo + 1)
        first = len(colors) + 1
        colors.extend(run_colors(length, lo, hi, rng))
        edges.append((1, first))
        edges.extend(_path_edges(first, length))
    return make_shape(len(colors), colors, edges)


def recolour(s: Shape, perm) -> Shape:
    """``s`` with colour ``k`` renamed ``perm[k - 1]``."""
    return s._replace(colors=(0, *(perm[col - 1] for col in s.colors[1:])))


# --------------------------------------------------------------------------
# subsets with verdicts known by construction

def boundary_subset(s: Shape) -> list:
    """Vertices with a neighbour of another colour (on a path: run ends).

    Strict consistent, hence consistent: walk a shortest path from an
    unchosen vertex to its nearest chosen one; every vertex before the end
    is unchosen, so all its neighbours share its colour, and the colour
    never changes along the way.  A one-colour graph has no boundary, and
    then any single vertex is strict consistent.
    """
    adj = s.adjacency()
    col = s.colors
    out = [v for v in range(1, s.n + 1) if any(col[w] != col[v] for w in adj[v])]
    return out or [1]
