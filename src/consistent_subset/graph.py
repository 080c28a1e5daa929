"""Vertex-colored graphs with hop-distance consistency checkers.

A colored graph is a simple undirected graph on vertices ``1..n`` where
every vertex carries a color id in ``1..c``.  For a nonempty subset ``S``
of vertices, the *nearest neighbors* of ``v`` in ``S`` are the members of
``S`` at minimum hop distance from ``v``.  ``S`` is

* **consistent** when every vertex has at least one nearest neighbor in
  ``S`` of its own color, and
* **strict consistent** when *all* nearest neighbors in ``S`` share the
  vertex's color.

Strict consistency implies consistency, and every strict consistent subset
meets every *block* (maximal connected monochromatic vertex set), which is
what :func:`blocks` computes.

Both checkers run one multi-source BFS from ``S`` that carries, per
vertex, the set of colors among its nearest members: O(n + m) time and
linear memory per call.  No distances are cached on the graph.
:func:`parse_graph` builds the sorted adjacency and counts ``m``, and
hands both to the graph; the graph builds its edge set from that adjacency
only when ``edges`` is first read, which neither checker nor the tree
solver does.  A file laid out as :func:`format_graph` writes it is read in
bulk, from one ``split`` of the text and counts that prove the layout;
every other file takes one plain pass over its lines that converts each
field with ``int()``, which gives the same graph and is the only source of
parse errors.

Every line reader of the package, here and in the reductions module,
shares three rules: ``_records`` yields the numbered lines that are not
blank or ``c`` comments, ``_header`` reads a ``p <kind> <counts...>``
header and builds its three messages (shape, integer fields, count
bounds) from the count names, and ``_ints`` converts integer fields and
names them in its one message.

Two line-oriented ASCII file formats are handled here (see the README for
the full grammar):

* CCG instances -- ``c`` comment lines, one ``p ccg <n> <m> <colors>``
  header, ``n`` color lines ``v <id> <color>`` and ``m`` edge lines
  ``e <u> <w>``;
* subsets -- a single line ``s <id> <id> ...`` with strictly increasing
  vertex ids.

Parse failures raise :class:`ParseError` naming the offending 1-based line.
Operations whose documented preconditions are violated (disconnected
input, empty subsets, enumeration caps...) raise :class:`PreconditionError`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import lt
from typing import Iterable, Mapping

#: What ``str.split()`` takes as whitespace in ASCII, beside space and newline
_OTHER_SPACE = "\t\r\x0b\x0c\x1c\x1d\x1e\x1f"


class ParseError(ValueError):
    """A malformed instance or subset file; ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PreconditionError(ValueError):
    """An operation was invoked outside its documented precondition."""


def _is_int(x) -> bool:
    """``int`` but not ``bool``: ``True`` would pass the range checks as 1
    and then be written out as ``True``, which the parser rejects."""
    return isinstance(x, int) and not isinstance(x, bool)


def _records(text: str):
    """``(line number, fields)`` of every line that is not blank or a ``c``
    comment; line numbers are 1-based."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0] != "c":
            yield lineno, parts


def _ints(lineno: int, fields, what: str) -> list[int]:
    """``fields`` converted by ``int()``; a field it rejects raises
    :class:`ParseError` ``<what> must be integers``."""
    try:
        return list(map(int, fields))
    except ValueError:
        raise ParseError(lineno, f"{what} must be integers") from None


def _header(lineno: int, parts, kind: str, names, lows) -> list[int]:
    """The counts of the header line ``p <kind> <names...>``; each must be
    at least its entry of ``lows``.  Every message is built from ``names``:
    the header's shape, then integer fields, then the count bounds."""
    if len(parts) != 2 + len(names) or parts[0] != "p" or parts[1] != kind:
        shape = " ".join(f"<{name}>" for name in names)
        raise ParseError(lineno, f"expected header 'p {kind} {shape}'")
    counts = _ints(lineno, parts[2:], "header fields")
    if any(map(lt, counts, lows)):
        given = " ".join(map("{}={}".format, names, counts))
        raise ParseError(lineno, f"malformed header counts {given}")
    return counts


def _is_vertex(g: ColoredGraph, v) -> bool:
    """A vertex id of ``g``: an ``int`` in ``1..n``.  A float would fail
    later as a list index, and ``True`` would be taken as vertex 1 (``False``
    fails the range test)."""
    return v is not True and isinstance(v, int) and 1 <= v <= g.n


class ColoredGraph:
    """Immutable simple undirected graph with a total vertex coloring.

    ``color`` is a tuple indexed by vertex id (index 0 is padding), each
    entry in ``1..c``.  ``m`` is the edge count, stored by both
    constructors.  ``edges`` is a frozenset of ``(u, w)`` pairs with
    ``u < w``: the constructor builds it from its argument, while a graph
    from :func:`parse_graph` builds it from the sorted adjacency on first
    read.  The sorted adjacency comes from :func:`parse_graph` for a parsed
    graph and is otherwise computed on first use; connectivity is computed
    on first use, by one search from vertex 1.  All three are cached; no
    distances are kept.  The identity fields never change after
    construction.
    """

    __slots__ = ("n", "c", "m", "color",
                 "_edges", "_adj", "_connected")

    def __init__(self, n: int, c: int,
                 edges: Iterable[tuple[int, int]], color) -> None:
        if not (_is_int(n) and _is_int(c)):
            raise ValueError(f"counts must be integers, got n={n!r} c={c!r}")
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        if c < 1:
            raise ValueError("color count must be at least 1")
        normalized = set()
        for u, w in edges:
            if not (_is_int(u) and _is_int(w)):
                raise ValueError(f"edge ({u!r},{w!r}) has a non-integer endpoint")
            if not (1 <= u <= n and 1 <= w <= n):
                raise ValueError(f"edge ({u},{w}) has an endpoint outside 1..{n}")
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((u, w) if u < w else (w, u))
        if isinstance(color, Mapping):
            missing = next((v for v in range(1, n + 1) if v not in color), None)
            if missing is not None:
                raise ValueError(f"missing color for vertex {missing}")
            if len(color) > n:      # every vertex has a key, so some key is not one
                extra = next(v for v in color if v not in range(1, n + 1))
                raise ValueError(f"color given for vertex {extra!r} outside 1..{n}")
            seq = [color[v] for v in range(1, n + 1)]
        else:
            seq = list(color)
            if len(seq) != n:
                raise ValueError(f"expected {n} colors, got {len(seq)}")
        for v, col in enumerate(seq, start=1):
            if not _is_int(col):
                raise ValueError(f"vertex {v} has non-integer color {col!r}")
            if not (1 <= col <= c):
                raise ValueError(f"vertex {v} has color {col} outside 1..{c}")
        self.n = n
        self.c = c
        self.m = len(normalized)
        self.color = (0, *seq)
        self._edges = frozenset(normalized)
        self._adj = None
        self._connected = None

    @classmethod
    def _from_parts(cls, n: int, c: int, m: int, color: tuple,
                    adj: tuple) -> "ColoredGraph":
        """Unchecked constructor for :func:`parse_graph`, which has already
        validated every field: ``color`` padded at index 0, ``adj`` the
        sorted neighbor tuples of a simple graph with ``m`` edges."""
        g = cls.__new__(cls)
        g.n = n
        g.c = c
        g.m = m
        g.color = color
        g._edges = None
        g._adj = adj
        g._connected = None
        return g

    @property
    def edges(self) -> frozenset:
        """``(u, w)`` pairs with ``u < w``; a parsed graph builds them here."""
        edges = self._edges
        if edges is None:
            adj = self._adj
            edges = self._edges = frozenset(
                (u, w) for u in range(1, self.n + 1) for w in adj[u] if u < w)
        return edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, indexed by vertex id."""
        adj = self._adj
        if adj is None:
            lists: list[list[int]] = [[] for _ in range(self.n + 1)]
            for u, w in self.edges:
                lists[u].append(w)
                lists[w].append(u)
            adj = self._adj = tuple(tuple(sorted(nbrs)) for nbrs in lists)
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def is_connected(self) -> bool:
        """Does one search from vertex 1 reach every vertex?"""
        if self._connected is None:
            adj = self.adjacency
            seen = bytearray(self.n + 1)
            seen[1] = 1
            order = [1]
            for u in order:
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = 1
                        order.append(w)
            self._connected = len(order) == self.n
        return self._connected

    @property
    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredGraph)
                and self.n == other.n and self.c == other.c
                and self.edges == other.edges and self.color == other.color)

    def __hash__(self) -> int:
        return hash((self.n, self.c, self.edges, self.color))

    def __repr__(self) -> str:
        return f"ColoredGraph(n={self.n}, m={self.m}, c={self.c})"


def _validated_members(g: ColoredGraph, S) -> frozenset:
    members = frozenset(S)
    if not members:
        raise PreconditionError("subset must be nonempty")
    n = g.n
    for v in members:
        # _is_vertex, inlined because it runs once per member
        if v is True or not isinstance(v, int) or not 1 <= v <= n:
            raise PreconditionError(f"subset vertex {v} not in graph")
    return members


def _consistency_scan(g: ColoredGraph, members, strict: bool) -> bool:
    """Unvalidated core of the checkers.

    ``members`` is an iterable of distinct vertex ids.  One multi-source
    BFS from ``members``, layer by layer.  ``mask[w]`` is
    the set of colors (one bit each) among ``w``'s nearest members, ties
    included: a vertex first reached from layer ``d`` inherits the mask of
    its discoverer, and every other neighbor on layer ``d`` ORs its mask in.
    Each layer is checked as soon as it is complete.  A vertex that no
    member reaches fails.
    """
    adj = g.adjacency
    color = g.color
    mask = [0] * (g.n + 1)
    depth = [-1] * (g.n + 1)
    frontier = list(members)
    for u in frontier:
        mask[u] = 1 << color[u]
        depth[u] = 0
    reached = len(frontier)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            mu = mask[u]
            for w in adj[u]:
                dw = depth[w]
                if dw < 0:
                    depth[w] = d
                    mask[w] = mu
                    nxt.append(w)
                elif dw == d:
                    mask[w] |= mu
        for w in nxt:
            bit = 1 << color[w]
            if (mask[w] != bit) if strict else not (mask[w] & bit):
                return False
        reached += len(nxt)
        frontier = nxt
    return reached == g.n


def is_consistent(g: ColoredGraph, S) -> bool:
    """Does every vertex have a same-colored nearest neighbor in ``S``?

    The graph must be connected and ``S`` a nonempty subset of it.
    """
    members = _validated_members(g, S)
    if not g.is_connected:
        raise PreconditionError("graph must be connected")
    return _consistency_scan(g, members, strict=False)


def is_strict_consistent(g: ColoredGraph, S) -> bool:
    """Are *all* nearest neighbors in ``S`` same-colored, for every vertex?"""
    members = _validated_members(g, S)
    if not g.is_connected:
        raise PreconditionError("graph must be connected")
    return _consistency_scan(g, members, strict=True)


def blocks(g: ColoredGraph) -> tuple[frozenset, ...]:
    """Maximal connected monochromatic vertex sets, ordered by smallest
    member: the components of the subgraph kept by same-color edges."""
    adj = g.adjacency
    color = g.color
    seen = [False] * (g.n + 1)
    parts = []
    for v in range(1, g.n + 1):
        if seen[v]:
            continue
        seen[v] = True
        comp = [v]
        for u in comp:
            for w in adj[u]:
                if not seen[w] and color[w] == color[u]:
                    seen[w] = True
                    comp.append(w)
        parts.append(frozenset(comp))
    return tuple(parts)


@dataclass(frozen=True)
class Certificate:
    """A claimed (strict) consistent subset and where it came from."""

    variant: str      # "mcs" | "mscs"
    witness: tuple    # strictly increasing vertex ids
    size: int
    provenance: str   # "brute-force-optimal" | "tree-dp-optimal"
                      # | "constructed" | "user-supplied"

    def __post_init__(self):
        if self.variant not in ("mcs", "mscs"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not self.witness:
            raise ValueError("witness must be nonempty")
        if list(self.witness) != sorted(set(self.witness)):
            raise ValueError("witness ids must be strictly increasing")
        if self.size != len(self.witness):
            raise ValueError("size must equal the witness cardinality")


def _parse_canonical(text: str) -> ColoredGraph | None:
    """The graph of a file in the line layout :func:`format_graph` writes
    (runs of spaces aside), or ``None`` when this cannot prove that the
    line loop of :func:`parse_graph` reads the file the same way.

    The layout is checked by counts, on the text before it is split, so
    that most other layouts cost the loop little:

    * the text is ASCII, holds no whitespace but spaces and ``n + m + 1``
      newlines, and ends in one;
    * its first line is the header ``p ccg n m c``;
    * ``"\\nv "`` occurs ``n`` times and ``"\\ne "`` ``m`` times, none of
      these before the last of those;
    * ``text.split()`` gives ``5 + 3(n + m)`` tokens, and every one after
      the header but those at ``5, 8, 11, ...`` is an id spelled ``str(i)``
      for ``i`` in ``1..n``, the ``v`` line ids being ``1..n`` in order.

    So the loop's ``splitlines`` cuts at the newlines only, into ``n + m +
    1`` lines.  Each occurrence of ``"\\nv "`` or ``"\\ne "`` starts at its
    own newline, and none at the last one, the final character: so the
    lines after the header start with the token ``v``, ``n`` times, then
    with ``e``, ``m`` times.  No id is ``v`` or ``e``, so these ``n + m``
    line starts are the ``n + m`` tokens at ``5, 8, 11, ...`` that the ids
    leave, and every line after the header holds exactly three tokens.
    With colors at most ``c``, ``u < w`` on every edge and the pairs ``(u,
    w)`` strictly increasing, the loop accepts each line as read here; and
    since the pairs are sorted, it appends every vertex's neighbours in
    ascending order, as done here with no sort.
    """
    if not text.isascii() or text[-1:] != "\n":
        return None
    head = text[:text.index("\n")].split()
    if len(head) != 5 or head[0] != "p" or head[1] != "ccg":
        return None
    try:
        n, m, c = map(int, head[2:])
    except ValueError:
        return None
    # counted before anything is sized by n
    if (n < 1 or m < 0 or c < 1 or text.count("\n") != n + m + 1
            or text.count("\nv ") != n or text.count("\ne ") != m
            or text.find("\ne ", 0, text.rfind("\nv ")) >= 0
            or any(map(text.__contains__, _OTHER_SPACE))):
        return None
    tokens = text.split()
    body = 3 * n + 5        # the first edge token
    names = list(map(str, range(1, n + 1)))
    if len(tokens) != body + 3 * m or tokens[6:body:3] != names:
        return None
    get = dict(zip(names, range(1, n + 1))).__getitem__
    try:
        color = (0, *map(get, tokens[7:body:3]))
        us = list(map(get, tokens[body + 1::3]))
        ws = list(map(get, tokens[body + 2::3]))
    except KeyError:
        return None
    del tokens, names, get  # free the tokens before the tuples are built
    pairs = list(zip(us, ws))
    if (max(color) > c or not all(map(lt, us, ws))
            or not all(map(lt, pairs, pairs[1:]))):
        return None
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, w in pairs:
        adj[u].append(w)
        adj[w].append(u)
    return ColoredGraph._from_parts(n, c, m, color, tuple(map(tuple, adj)))


def parse_graph(text: str) -> ColoredGraph:
    """Parse a CCG instance; raises :class:`ParseError` with line numbers.

    A file laid out as :func:`format_graph` and ``consist gen`` write it is
    read in bulk by :func:`_parse_canonical`.  Any other file takes one
    plain pass over its records, which converts every field with ``int()``,
    validates it and stores only what the file holds: the colors by vertex,
    the adjacency lists and the edge set.  It gives the same graph, and
    every error.  The padded color tuple and the sorted adjacency are built
    once the counts are checked; the edge set is not kept on the graph,
    which builds its own if it is ever read.
    """
    g = _parse_canonical(text)
    if g is not None:
        return g
    header = None
    n = m = c = 0
    colors: dict[int, int] = {}
    adj: defaultdict[int, list[int]] = defaultdict(list)
    edges: set[tuple[int, int]] = set()
    for lineno, parts in _records(text):
        kind = parts[0]
        if header is None:
            n, m, c = _header(lineno, parts, "ccg", ("n", "m", "colors"), (1, 0, 1))
            header = lineno
        elif kind == "v" and len(parts) == 3:
            vid, col = _ints(lineno, parts[1:], "color line fields")
            if not (1 <= vid <= n):
                raise ParseError(lineno, f"vertex id {vid} out of range 1..{n}")
            if not (1 <= col <= c):
                raise ParseError(lineno, f"color id {col} out of range 1..{c}")
            if vid in colors:
                raise ParseError(lineno, f"duplicate color line for vertex {vid}")
            colors[vid] = col
        elif kind == "e" and len(parts) == 3:
            u, w = _ints(lineno, parts[1:], "edge line fields")
            if not (1 <= u <= n and 1 <= w <= n):
                raise ParseError(lineno, f"vertex id out of range 1..{n} in edge ({u},{w})")
            if u == w:
                raise ParseError(lineno, f"self-loop at vertex {u}")
            edge = (u, w) if u < w else (w, u)
            if edge in edges:
                raise ParseError(lineno, f"duplicate edge ({edge[0]},{edge[1]})")
            if len(edges) == m:
                raise ParseError(lineno, f"more than {m} edge lines")
            edges.add(edge)
            adj[u].append(w)
            adj[w].append(u)
        elif kind == "p":
            raise ParseError(lineno, "duplicate header")
        elif kind == "v":
            raise ParseError(lineno, "color line must be 'v <id> <color>'")
        elif kind == "e":
            raise ParseError(lineno, "edge line must be 'e <u> <w>'")
        else:
            raise ParseError(lineno, f"unrecognized line type {kind!r}")
    if header is None:
        raise ParseError(max(1, len(text.splitlines())), "missing 'p ccg' header")
    if len(colors) != n:
        missing = next(v for v in range(1, n + 1) if v not in colors)
        raise ParseError(len(text.splitlines()), f"missing color line for vertex {missing}")
    if len(edges) != m:
        raise ParseError(len(text.splitlines()),
                         f"expected {m} edge lines, found {len(edges)}")
    color = (0, *(colors[v] for v in range(1, n + 1)))
    return ColoredGraph._from_parts(
        n, c, m, color, tuple(tuple(sorted(adj[v])) for v in range(n + 1)))


def format_graph(g: ColoredGraph) -> str:
    """Canonical CCG serialization: header, colors ascending, sorted edges."""
    lines = [f"p ccg {g.n} {g.m} {g.c}"]
    lines.extend(f"v {v} {g.color[v]}" for v in range(1, g.n + 1))
    lines.extend(f"e {u} {w}" for u, w in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_subset(text: str, n: int) -> tuple[int, ...]:
    """Parse a one-line subset file against a graph with ``n`` vertices."""
    chosen = None
    for lineno, parts in _records(text):
        if parts[0] != "s":
            raise ParseError(lineno, "expected subset line 's <id> <id> ...'")
        if chosen is not None:
            raise ParseError(lineno, "duplicate subset line")
        ids = _ints(lineno, parts[1:], "subset ids")
        if not ids:
            raise ParseError(lineno, "subset must list at least one vertex")
        if not all(map(lt, ids, ids[1:])):
            raise ParseError(lineno, "subset ids must be strictly increasing")
        if ids[0] < 1 or ids[-1] > n:
            # the ids increase, so the first out of range is the first or
            # the first above n
            x = ids[0] if ids[0] < 1 else ids[bisect_right(ids, n)]
            raise ParseError(lineno, f"vertex id {x} out of range 1..{n}")
        chosen = tuple(ids)
    if chosen is None:
        raise ParseError(max(1, len(text.splitlines())), "missing subset line")
    return chosen


def format_subset(ids: Iterable[int]) -> str:
    ordered = sorted(set(ids))
    if not ordered:
        raise ValueError("subset must be nonempty")
    return "s " + " ".join(str(v) for v in ordered) + "\n"
