"""Instance-family generators with constructive certificates.

Each generator converts a classic problem instance into a colored-graph
(or interval) instance whose optimal consistent-subset size is an affine
function of the source optimum.  The returned metadata records that size
formula; the returned layout maps every gadget role to a concrete vertex
id so certificates, tests, and sidecar files can refer to the structure.

Families:

* ``dominating_set_to_mcs`` -- graph + one apex of a second color, so
  minimum consistent subsets track minimum dominating sets (k -> k+1);
* ``max2sat_to_tree`` -- a tree whose minimum consistent subset counts
  how many clauses of a 2-CNF formula the best assignment satisfies;
* ``cubic_vc_to_intervals`` -- intervals over exact rationals whose
  overlap graph ties consistent subsets to vertex covers of a cubic graph
  (k -> k*(3+p));
* ``set_cover_to_mscs`` -- bipartite membership graph + a red tail, tying
  strict consistent subsets to set covers (k -> k+1);
* ``planar_ds_to_mscs`` -- pendant red/blue paths on every vertex, tying
  strict consistent subsets to dominating sets (k -> n+k).

All vertex/color id assignments are deterministic functions of the input,
so generated files are byte-stable.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .graph import (Certificate, ColoredGraph, ParseError, PreconditionError,
                    _header, _ints, _is_int, _records)


# --------------------------------------------------------------------------
# source-problem instances and their file formats

@dataclass(frozen=True)
class TwoSatFormula:
    """A 2-CNF formula; each clause is two ``(variable, positive)`` literals."""

    n: int
    clauses: tuple

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"variable count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("formula needs at least one variable")
        for clause in self.clauses:
            if len(clause) != 2:
                raise ValueError("every clause must have exactly two literals")
            for var, positive in clause:
                if not (_is_int(var) and 1 <= var <= self.n):
                    raise ValueError(f"variable {var} out of range 1..{self.n}")
                if not isinstance(positive, bool):
                    raise ValueError("literal polarity must be a bool")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def satisfied_count(self, assignment: Mapping[int, bool]) -> int:
        return sum(1 for clause in self.clauses
                   if any(assignment[var] == positive for var, positive in clause))


def parse_cnf2(text: str) -> TwoSatFormula:
    """DIMACS CNF restricted to 2-literal clauses, one clause per line."""
    n = m = None
    clauses = []
    for lineno, parts in _records(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            n, m = _header(lineno, parts, "cnf", ("vars", "clauses"), (1, 0))
            continue
        if n is None:
            raise ParseError(lineno, "clause before 'p cnf' header")
        lits = _ints(lineno, parts, "clause literals")
        if not lits or lits[-1] != 0:
            raise ParseError(lineno, "clause line must end with 0")
        lits = lits[:-1]
        if len(lits) != 2:
            raise ParseError(lineno, f"expected exactly 2 literals, got {len(lits)}")
        clause = []
        for lit in lits:
            if lit == 0 or not (1 <= abs(lit) <= n):
                raise ParseError(lineno, f"literal {lit} out of range")
            clause.append((abs(lit), lit > 0))
        clauses.append(tuple(clause))
        if len(clauses) > m:
            raise ParseError(lineno, f"more than {m} clause lines")
    last_line = max(1, len(text.splitlines()))
    if n is None:
        raise ParseError(last_line, "missing 'p cnf' header")
    if len(clauses) != m:
        raise ParseError(last_line, f"expected {m} clauses, found {len(clauses)}")
    return TwoSatFormula(n, tuple(clauses))


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe ``1..n`` plus a family of covering sets."""

    n: int
    sets: tuple

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"universe size must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("universe must be nonempty")
        if not self.sets:
            raise ValueError("need at least one set")
        union = set()
        for s in self.sets:
            for e in s:
                if not (_is_int(e) and 1 <= e <= self.n):
                    raise ValueError(f"element {e} out of range 1..{self.n}")
            union |= set(s)
        if union != set(range(1, self.n + 1)):
            raise ValueError("the sets must cover the whole universe")

    @property
    def m(self) -> int:
        return len(self.sets)


def parse_set_cover(text: str) -> SetCoverInstance:
    """Header ``p sc <n> <m>`` then ``m`` lines ``s <index> <elem> ...``."""
    n = m = None
    found: dict[int, frozenset] = {}
    for lineno, parts in _records(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            n, m = _header(lineno, parts, "sc", ("n", "m"), (1, 1))
            continue
        if parts[0] != "s":
            raise ParseError(lineno, f"unrecognized line type {parts[0]!r}")
        if n is None:
            raise ParseError(lineno, "set line before 'p sc' header")
        nums = _ints(lineno, parts[1:], "set line fields")
        if not nums:
            raise ParseError(lineno, "set line must name a set index")
        idx, elems = nums[0], nums[1:]
        if not (1 <= idx <= m):
            raise ParseError(lineno, f"set index {idx} out of range 1..{m}")
        if idx in found:
            raise ParseError(lineno, f"duplicate set line for index {idx}")
        for e in elems:
            if not (1 <= e <= n):
                raise ParseError(lineno, f"element {e} out of range 1..{n}")
        found[idx] = frozenset(elems)
    last_line = max(1, len(text.splitlines()))
    if n is None:
        raise ParseError(last_line, "missing 'p sc' header")
    if len(found) != m:
        missing = next(j for j in range(1, m + 1) if j not in found)
        raise ParseError(last_line, f"missing set line for index {missing}")
    try:
        return SetCoverInstance(n, tuple(found[j] for j in range(1, m + 1)))
    except ValueError as exc:
        raise ParseError(last_line, str(exc)) from None


def format_set_cover(sc: SetCoverInstance) -> str:
    lines = [f"p sc {sc.n} {sc.m}"]
    for j, s in enumerate(sc.sets, start=1):
        lines.append("s " + " ".join(str(x) for x in (j, *sorted(s))))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# metadata

@dataclass(frozen=True)
class ReductionMetadata:
    """Size formula and bookkeeping for one generated instance."""

    reduction: str
    params: tuple            # ordered (name, value) pairs
    formula: str             # human-readable size formula
    size_fn: Callable = field(compare=False)
    roles: tuple = ()        # ordered (role name, vertex/interval id) pairs

    def target_size(self, k: int) -> int:
        """Optimal target size corresponding to a source optimum of ``k``."""
        return self.size_fn(k)


def format_metadata(meta: ReductionMetadata) -> str:
    """Sidecar serialization: key=value lines, then one line per role."""
    lines = [f"reduction={meta.reduction}"]
    lines.extend(f"{k}={v}" for k, v in meta.params)
    lines.append(f"formula={meta.formula}")
    lines.extend(f"role {name} {vid}" for name, vid in meta.roles)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# dominating set -> minimum consistent subset

def dominating_set_to_mcs(g: ColoredGraph):
    """Add one apex of a second color adjacent to every vertex.

    Any dominating set plus the apex is consistent, and any consistent
    subset yields a dominating set of one less, so optima map k -> k+1.
    ``g`` must be connected; its colors are ignored.
    """
    if not g.is_connected:
        raise PreconditionError("the source graph must be connected")
    apex = g.n + 1
    edges = set(g.edges)
    edges.update((v, apex) for v in range(1, g.n + 1))
    colors = [1] * g.n + [2]
    target = ColoredGraph(apex, 2, edges, colors)
    meta = ReductionMetadata(
        reduction="ds-mcs",
        params=(("n", g.n), ("m", g.m)),
        formula="k+1",
        size_fn=lambda k: k + 1,
        roles=(("x", apex),),
    )
    return target, meta


# --------------------------------------------------------------------------
# MAX-2SAT -> tree

@dataclass(frozen=True)
class TreeReductionLayout:
    """Vertex ids of every gadget role in a 2-CNF tree."""

    n: int
    m: int
    M: int
    pos_path: Mapping      # (variable, 1..4) -> vid, positive-literal path
    neg_path: Mapping
    pos_stab: Mapping      # (variable, 1..M) -> vid
    neg_stab: Mapping      # paired stabilizer, same color as pos_stab twin
    left_path: Mapping     # (clause, 1..7) -> vid, first-literal path
    right_path: Mapping    # (clause, 1..7) -> vid, second-literal path
    clause_path: Mapping   # (clause, 1..7) -> vid, connector path
    center: tuple          # (v1, v2, v3)


def max2sat_to_tree(f: TwoSatFormula, M: int | None = None):
    """Tree whose optimum counts the best-assignment satisfied clauses.

    Every variable gets two 4-vertex literal paths (fresh colors) and ``M``
    stabilizer pairs forcing exactly one side to be picked wholesale; every
    clause gets three 7-vertex paths hooked to its literal colors; one
    3-vertex central path glues everything.  With k clauses satisfiable the
    optimum is N(k) = n*(M+2) + 2k + 3(m-k) + 1; that needs
    N(m) < (n+1)*M, so too-small ``M`` draws a warning.  Default M = n^3.
    """
    n, m = f.n, f.m
    if M is None:
        M = max(1, n ** 3)
    if not _is_int(M):
        raise PreconditionError(f"M must be an integer, got {M!r}")
    if M < 1:
        raise PreconditionError("M must be at least 1")
    if n * (M + 2) + 2 * m + 1 >= (n + 1) * M:
        warnings.warn(
            f"M={M} is too small for the optimum to be exactly N(k); "
            f"need n*(M+2)+2m+1 < (n+1)*M", stacklevel=2)

    colors: list[int] = []         # vertex v has colour colors[v - 1]
    edges: list[tuple[int, int]] = []
    roles: list[tuple[str, int]] = []

    def run(part, key, name, count, color, hub=None):
        """``count`` new vertices as ``part[(key, 1..count)]``, with sidecar
        roles ``name`` followed by ``1..count``, joined as a path of colour
        ``color``; with a ``hub``, each joins the hub instead and they take
        colours ``color, color+1, ...`` (the stabilizers)."""
        for a in range(1, count + 1):
            vid = part[(key, a)] = len(colors) + 1
            roles.append((f"{name}{a}", vid))
            colors.append(color if hub is None else color + a - 1)
            if hub or a > 1:
                edges.append((hub or vid - 1, vid))

    pos_path, neg_path, pos_stab, neg_stab = {}, {}, {}, {}
    left_path, right_path, clause_path, center = {}, {}, {}, {}
    # colours: literal x_i is 2i-1 and its negation 2i; then one per
    # stabilizer pair (both twins share it), one per clause, and the centre
    for i in range(1, n + 1):
        run(pos_path, i, f"x{i}^", 4, 2 * i - 1)
        run(neg_path, i, f"xbar{i}^", 4, 2 * i)
        run(pos_stab, i, f"s{i}^", M, 2 * n + (i - 1) * M + 1, pos_path[(i, 1)])
        run(neg_stab, i, f"sbar{i}^", M, 2 * n + (i - 1) * M + 1, neg_path[(i, 1)])
    for i, ((va, pa), (vb, pb)) in enumerate(f.clauses, start=1):
        run(left_path, i, f"y{i}^", 7, 2 * va - pa)
        run(right_path, i, f"z{i}^", 7, 2 * vb - pb)
        run(clause_path, i, f"w{i}^", 7, 2 * n + n * M + i)
        edges.append((left_path[(i, 1)], clause_path[(i, 2)]))
        edges.append((right_path[(i, 1)], clause_path[(i, 6)]))
    center_color = 2 * n + n * M + m + 1
    run(center, 0, "v", 3, center_color)
    v1 = center[(0, 1)]
    edges.extend((path[(i, 1)], v1) for i in range(1, n + 1)
                 for path in (pos_path, neg_path))
    edges.extend((clause_path[(i, 4)], v1) for i in range(1, m + 1))

    tree = ColoredGraph(len(colors), center_color, edges, colors)
    layout = TreeReductionLayout(
        n=n, m=m, M=M,
        pos_path=pos_path, neg_path=neg_path,
        pos_stab=pos_stab, neg_stab=neg_stab,
        left_path=left_path, right_path=right_path, clause_path=clause_path,
        center=tuple(center.values()))
    meta = ReductionMetadata(
        reduction="2sat-tree",
        params=(("n", n), ("m", m), ("M", M)),
        formula="N(k)=n*(M+2)+2k+3(m-k)+1",
        size_fn=lambda k, _n=n, _m=m, _M=M: _n * (_M + 2) + 2 * k + 3 * (_m - k) + 1,
        roles=tuple(roles),
    )
    return tree, layout, meta


def assignment_certificate(layout: TreeReductionLayout, f: TwoSatFormula,
                           assignment: Mapping[int, bool]) -> Certificate:
    """The consistent subset a truth assignment induces on the 2-CNF tree.

    Picks one stabilizer side per variable (plus the two matching literal
    anchors), two or three clause-path endpoints per clause depending on
    which literal, if any, is satisfied, and the central tail ``v3``.  Its
    size is exactly N(satisfied-clause count).
    """
    for i in range(1, f.n + 1):
        if i not in assignment:
            raise PreconditionError(f"assignment misses variable {i}")
    chosen: set[int] = {layout.center[2]}
    for i in range(1, f.n + 1):
        if assignment[i]:
            chosen.update(layout.pos_stab[(i, j)] for j in range(1, layout.M + 1))
            chosen.add(layout.pos_path[(i, 2)])
            chosen.add(layout.neg_path[(i, 4)])
        else:
            chosen.update(layout.neg_stab[(i, j)] for j in range(1, layout.M + 1))
            chosen.add(layout.pos_path[(i, 4)])
            chosen.add(layout.neg_path[(i, 2)])
    satisfied = 0
    for i, clause in enumerate(f.clauses, start=1):
        (va, pa), (vb, pb) = clause
        if assignment[va] == pa:            # first literal true
            chosen.add(layout.clause_path[(i, 7)])
            chosen.add(layout.right_path[(i, 1)])
            satisfied += 1
        elif assignment[vb] == pb:          # only the second literal true
            chosen.add(layout.clause_path[(i, 1)])
            chosen.add(layout.left_path[(i, 1)])
            satisfied += 1
        else:                               # clause unsatisfied
            chosen.add(layout.clause_path[(i, 1)])
            chosen.add(layout.left_path[(i, 1)])
            chosen.add(layout.right_path[(i, 7)])
    expected = f.n * (layout.M + 2) + 2 * satisfied + 3 * (f.m - satisfied) + 1
    if len(chosen) != expected:
        raise AssertionError("certificate size disagrees with N(k)")
    return Certificate("mcs", tuple(sorted(chosen)), len(chosen), "constructed")


# --------------------------------------------------------------------------
# cubic vertex cover -> intervals

@dataclass(frozen=True)
class Interval:
    """A closed interval with exact rational endpoints."""

    id: int
    color: int
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class IntervalInstance:
    """Intervals plus the gadget roles of the vertex-cover construction.

    Gadget ``X_i`` (for source vertex ``i``) spans ``[2i, 2i+1]`` and holds
    one *medium* interval per incident edge (colored by the edge) plus
    ``p`` tiny pairwise-disjoint *small* intervals; each gap
    ``(2i+1, 2i+2)`` holds ``q`` small intervals; one *large* interval of
    the first edge color contains everything.
    """

    intervals: tuple
    p: int
    q: int
    source_n: int
    mediums: tuple        # (edge index, source vertex, interval id) triples
    gadget_smalls: Mapping  # source vertex -> tuple of interval ids
    gap_smalls: Mapping     # gap index 1..n -> tuple of interval ids
    large_id: int

    def roles(self):
        for e, v, iid in self.mediums:
            yield f"med_e{e}_v{v}", iid
        for v in range(1, self.source_n + 1):
            for j, iid in enumerate(self.gadget_smalls[v], start=1):
                yield f"small_v{v}_{j}", iid
        for i in range(1, self.source_n + 1):
            for j, iid in enumerate(self.gap_smalls[i], start=1):
                yield f"gap_{i}_{j}", iid
        yield "large", self.large_id


def _packed_smalls(intervals: list, start, count: int, n: int,
                   color: int) -> tuple:
    """Append ``count`` disjoint closed intervals strictly inside
    ``(start, start+1)`` to ``intervals``, with the next free ids; return
    those ids.

    Centers march in steps of 1/(count+1); widths are capped both by half a
    step (disjointness) and by 1/(2(n^3+1)) (the construction's epsilon).
    """
    step = Fraction(1, count + 1)
    half = min(step, Fraction(1, n ** 3 + 1)) / 4
    first = len(intervals) + 1
    for j in range(count):
        center = start + (j + 1) * step
        intervals.append(Interval(first + j, color, center - half, center + half))
    return tuple(range(first, first + count))


def cubic_vc_to_intervals(g: ColoredGraph, p: int | None = None,
                          q: int | None = None):
    """Interval system whose overlap graph ties MCS size to k*(3+p).

    ``g`` must be cubic (every degree exactly 3); its colors are ignored.
    Defaults: p = n^3 small intervals per gadget, q = n^4 per gap.
    """
    n = g.n
    for v in range(1, n + 1):
        if g.degree(v) != 3:
            raise PreconditionError(
                f"vertex {v} has degree {g.degree(v)}; the graph must be cubic")
    if p is None:
        p = n ** 3
    if q is None:
        q = n ** 4
    for name, value in (("p", p), ("q", q)):
        if not _is_int(value):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if p < 1 or q < 1:
        raise PreconditionError("p and q must be at least 1")
    edge_index = {e: i for i, e in enumerate(sorted(g.edges), start=1)}
    small_color = g.m + 1
    intervals: list[Interval] = []
    mediums = []
    gadget_smalls = {}
    for v in range(1, n + 1):
        lo, hi = Fraction(2 * v), Fraction(2 * v + 1)
        for e in sorted(edge_index[e] for e in g.edges if v in e):
            mediums.append((e, v, len(intervals) + 1))
            intervals.append(Interval(len(intervals) + 1, e, lo, hi))
        gadget_smalls[v] = _packed_smalls(intervals, lo, p, n, small_color)
    gap_smalls = {i: _packed_smalls(intervals, Fraction(2 * i + 1), q, n, small_color)
                  for i in range(1, n + 1)}
    large = Interval(len(intervals) + 1, 1, Fraction(1), Fraction(2 * n + 2))
    intervals.append(large)
    instance = IntervalInstance(
        intervals=tuple(intervals), p=p, q=q, source_n=n,
        mediums=tuple(mediums), gadget_smalls=gadget_smalls,
        gap_smalls=gap_smalls, large_id=large.id)
    meta = ReductionMetadata(
        reduction="vc-intervals",
        params=(("n", n), ("m", g.m), ("p", p), ("q", q)),
        formula="K(k)=k*(3+p)",
        size_fn=lambda k, _p=p: k * (3 + _p),
        roles=tuple(instance.roles()),
    )
    return instance, meta


def intervals_to_graph(intervals) -> ColoredGraph:
    """Overlap graph of closed intervals (ids become vertex ids).

    Accepts an :class:`IntervalInstance` or any iterable of intervals whose
    ids are exactly ``1..N``.
    """
    if isinstance(intervals, IntervalInstance):
        intervals = intervals.intervals
    items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi, iv.id))
    n = len(items)
    if sorted(iv.id for iv in items) != list(range(1, n + 1)):
        raise PreconditionError("interval ids must be exactly 1..N")
    edges = []
    active: list[tuple[Fraction, int]] = []
    for iv in items:
        while active and active[0][0] < iv.lo:
            heapq.heappop(active)
        for _, other in active:
            edges.append((other, iv.id) if other < iv.id else (iv.id, other))
        heapq.heappush(active, (iv.hi, iv.id))
    colors = {iv.id: iv.color for iv in items}
    return ColoredGraph(n, max(colors.values()), edges, colors)


def interval_cover_certificate(instance: IntervalInstance, cover) -> Certificate:
    """Gadget contents of a vertex cover, as a consistent subset.

    ``cover`` must cover every source edge (both medium twins of an edge
    live in its endpoints' gadgets); the witness is all mediums and gadget
    smalls of the chosen vertices, |cover|*(3+p) intervals in total.
    """
    chosen_vertices = set(cover)
    for v in chosen_vertices:
        if not (_is_int(v) and 1 <= v <= instance.source_n):
            raise PreconditionError(f"cover vertex {v} not in the source graph")
    endpoints: dict[int, set[int]] = {}
    for e, v, _ in instance.mediums:
        endpoints.setdefault(e, set()).add(v)
    for e, vs in endpoints.items():
        if not vs & chosen_vertices:
            raise PreconditionError(f"cover misses edge {e}; not a vertex cover")
    witness = {iid for _, v, iid in instance.mediums if v in chosen_vertices}
    for v in chosen_vertices:
        witness.update(instance.gadget_smalls[v])
    if len(witness) != len(chosen_vertices) * (3 + instance.p):
        raise AssertionError("certificate size disagrees with k*(3+p)")
    return Certificate("mcs", tuple(sorted(witness)), len(witness), "constructed")


def format_intervals(intervals) -> str:
    """One line per interval: ``i <id> <color> <lo_n>/<lo_d> <hi_n>/<hi_d>``."""
    if isinstance(intervals, IntervalInstance):
        intervals = intervals.intervals
    lines = []
    for iv in sorted(intervals, key=lambda iv: iv.id):
        lines.append(f"i {iv.id} {iv.color} "
                     f"{iv.lo.numerator}/{iv.lo.denominator} "
                     f"{iv.hi.numerator}/{iv.hi.denominator}")
    return "\n".join(lines) + "\n"


def parse_intervals(text: str) -> tuple:
    """Inverse of :func:`format_intervals`; returns a tuple of intervals."""
    out = []
    seen = set()
    for lineno, parts in _records(text):
        if parts[0] != "i" or len(parts) != 5:
            raise ParseError(lineno, "expected 'i <id> <color> <lo> <hi>'")
        try:
            iid, color = int(parts[1]), int(parts[2])
            lo = Fraction(parts[3])
            hi = Fraction(parts[4])
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, "malformed interval fields") from None
        if iid < 1 or color < 1:
            raise ParseError(lineno, "interval id and color must be positive")
        if iid in seen:
            raise ParseError(lineno, f"duplicate interval id {iid}")
        if hi < lo:
            raise ParseError(lineno, f"interval {iid} has hi < lo")
        seen.add(iid)
        out.append(Interval(iid, color, lo, hi))
    if not out:
        raise ParseError(max(1, len(text.splitlines())), "no interval lines found")
    return tuple(out)


# --------------------------------------------------------------------------
# set cover -> minimum strict consistent subset

@dataclass(frozen=True)
class SetCoverLayout:
    """Vertex ids of the set-cover membership graph."""

    elements: Mapping   # element -> blue vertex id
    sets: Mapping       # set index -> blue vertex id
    r1: int
    r2: int


def set_cover_to_mscs(sc: SetCoverInstance):
    """Membership graph + set clique + a red two-vertex tail.

    Blue element vertices attach to the blue clique of their sets; red
    ``r1`` sees every element and drags red ``r2`` behind it.  Strict
    consistent subsets are exactly {r-pair representative} + set covers,
    so optima map k -> k+1.  Colors: blue=1, red=2.
    """
    n, m = sc.n, sc.m
    elements = {e: e for e in range(1, n + 1)}
    set_vs = {j: n + j for j in range(1, m + 1)}
    r1, r2 = n + m + 1, n + m + 2
    roles = (*((f"x{e}", v) for e, v in elements.items()),
             *((f"y{j}", v) for j, v in set_vs.items()), ("r1", r1), ("r2", r2))
    edges = []
    for j, s in enumerate(sc.sets, start=1):
        for e in sorted(s):
            edges.append((e, set_vs[j]))
    for a, b in itertools.combinations(range(1, m + 1), 2):
        edges.append((set_vs[a], set_vs[b]))
    for e in range(1, n + 1):
        edges.append((e, r1))
    edges.append((r1, r2))
    colors = [1] * (n + m) + [2, 2]
    graph = ColoredGraph(n + m + 2, 2, edges, colors)
    layout = SetCoverLayout(elements, set_vs, r1, r2)
    meta = ReductionMetadata(
        reduction="sc-mscs",
        params=(("n", n), ("m", m)),
        formula="k+1",
        size_fn=lambda k: k + 1,
        roles=roles,
    )
    return graph, layout, meta


# --------------------------------------------------------------------------
# dominating set -> minimum strict consistent subset (pendant paths)

@dataclass(frozen=True)
class PendantLayout:
    """Vertex ids of the pendant-path construction."""

    n: int
    r1: Mapping
    b1: Mapping
    b2: Mapping
    b3: Mapping


def planar_ds_to_mscs(g: ColoredGraph):
    """Hang a red/blue pendant path off every vertex.

    Original vertices and the first pendant vertex are red, the outer
    three blue; strict consistent subsets then cost n + (dominating-set
    size), i.e. optima map k -> n+k.  ``g`` must be connected; planarity
    is the caller's business (it matters for the hardness pedigree, not
    for instance validity).  Colors: red=1, blue=2; source colors are
    ignored.
    """
    if not g.is_connected:
        raise PreconditionError("the source graph must be connected")
    n = g.n
    r1, b1, b2, b3 = {}, {}, {}, {}
    edges = list(g.edges)
    colors = [1] * n
    roles = []
    for v in range(1, n + 1):
        path = (v, *range(len(colors) + 1, len(colors) + 5))
        r1[v], b1[v], b2[v], b3[v] = path[1:]
        roles += zip((f"r1_{v}", f"b1_{v}", f"b2_{v}", f"b3_{v}"), path[1:])
        edges.extend(zip(path, path[1:]))
        colors += (1, 2, 2, 2)
    graph = ColoredGraph(5 * n, 2, edges, colors)
    layout = PendantLayout(n, r1, b1, b2, b3)
    meta = ReductionMetadata(
        reduction="ds-mscs",
        params=(("n", n), ("m", g.m)),
        formula="n+k",
        size_fn=lambda k, _n=n: _n + k,
        roles=tuple(roles),
    )
    return graph, layout, meta


def ds_mscs_certificate(layout: PendantLayout, g: ColoredGraph, D) -> Certificate:
    """Strict consistent subset induced by a dominating set ``D``.

    Dominated-but-unchosen vertices lean on their chosen neighbor, pendant
    paths on ``b2``/``b3`` anchors: {v, b2(v) for v in D} + {b3(v) for the
    rest}, n + |D| vertices in total.
    """
    chosen = set(D)
    for v in chosen:
        if not (_is_int(v) and 1 <= v <= layout.n):
            raise PreconditionError(f"vertex {v} not in the source graph")
    if not chosen:
        raise PreconditionError("D must be nonempty")
    for v in range(1, layout.n + 1):
        if v not in chosen and not any(u in chosen for u in g.neighbors(v)):
            raise PreconditionError(f"vertex {v} is not dominated; D is not a dominating set")
    witness: set[int] = set()
    for v in range(1, layout.n + 1):
        if v in chosen:
            witness.add(v)
            witness.add(layout.b2[v])
        else:
            witness.add(layout.b3[v])
    if len(witness) != layout.n + len(chosen):
        raise AssertionError("certificate size disagrees with n+k")
    return Certificate("mscs", tuple(sorted(witness)), len(witness), "constructed")
