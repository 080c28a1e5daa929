import tracemalloc

import pytest
from hypothesis import given, strategies as st

from consistent_subset import (Certificate, ColoredGraph, ParseError,
                               PreconditionError, blocks,
                               cubic_vc_to_intervals, format_graph,
                               format_subset, intervals_to_graph,
                               is_consistent, is_strict_consistent,
                               parse_graph, parse_subset, random_tree,
                               solve_tree_mcs)
from consistent_subset.graph import _parse_canonical

from helpers import (RRBB, RRBB_TEXT, caterpillar, complete_graph, path_graph,
                     ref_adjacency, ref_distances, ref_is_consistent,
                     star_graph)


# --------------------------------------------------------------------------
# construction

def test_graph_fields():
    g = RRBB
    assert (g.n, g.m, g.c) == (4, 3, 2)
    assert g.color == (0, 1, 1, 2, 2)
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert g.neighbors(2) == (1, 3)
    assert g.degree(3) == 2


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        ColoredGraph(0, 1, [], {})
    with pytest.raises(ValueError):
        ColoredGraph(2, 1, [(1, 1)], {1: 1, 2: 1})       # self loop
    with pytest.raises(ValueError):
        ColoredGraph(2, 1, [(1, 3)], {1: 1, 2: 1})       # endpoint range
    with pytest.raises(ValueError):
        ColoredGraph(2, 1, [], {1: 1, 2: 2})             # color range
    with pytest.raises(ValueError, match="^missing color for vertex 2$"):
        ColoredGraph(2, 1, [], {1: 1})
    with pytest.raises(ValueError, match="^color count must be at least 1$"):
        ColoredGraph(1, 0, [], [1])
    with pytest.raises(ValueError, match="^expected 2 colors, got 1$"):
        ColoredGraph(2, 1, [], [1])
    with pytest.raises(ValueError, match="^expected 2 colors, got 3$"):
        ColoredGraph(2, 1, [], [1, 1, 1])
    # non-integers would pass the range checks and crash the solvers later
    with pytest.raises(ValueError, match="non-integer color"):
        ColoredGraph(2, 2, [(1, 2)], [1.0, 2])
    with pytest.raises(ValueError, match="non-integer endpoint"):
        ColoredGraph(2, 2, [(1.0, 2)], [1, 2])
    with pytest.raises(ValueError, match="^counts must be integers"):
        ColoredGraph(2.0, 2, [(1, 2)], [1, 2])
    with pytest.raises(ValueError, match="^counts must be integers"):
        ColoredGraph(2, 2.0, [(1, 2)], [1, 2])
    # bool is an int subclass, and format_graph would write it as True
    with pytest.raises(ValueError, match="^counts must be integers"):
        ColoredGraph(True, 1, [], [1])
    with pytest.raises(ValueError, match="^counts must be integers"):
        ColoredGraph(2, True, [(1, 2)], [1, 1])
    with pytest.raises(ValueError, match="non-integer endpoint"):
        ColoredGraph(2, 2, [(True, 2)], [1, 2])
    with pytest.raises(ValueError, match="non-integer color"):
        ColoredGraph(2, 2, [(1, 2)], [True, 2])
    with pytest.raises(ValueError, match="non-integer color"):
        ColoredGraph(2, 2, [(1, 2)], {1: 1, 2: False})
    # a color map may not name a vertex the graph does not have
    with pytest.raises(ValueError, match=r"^color given for vertex 0 outside 1\.\.2$"):
        ColoredGraph(2, 2, [], {0: 1, 1: 1, 2: 2, 7: 2})
    with pytest.raises(ValueError, match=r"^color given for vertex 7 outside 1\.\.2$"):
        ColoredGraph(2, 2, [], {1: 1, 2: 2, 7: 2})
    with pytest.raises(ValueError, match=r"^color given for vertex -1 outside 1\.\.2$"):
        ColoredGraph(2, 2, [(1, 2)], {-1: 1, 1: 1, 2: 2})
    with pytest.raises(ValueError, match=r"^color given for vertex '1' outside 1\.\.2$"):
        ColoredGraph(2, 2, [(1, 2)], {1: 1, 2: 2, "1": 2})


def test_graph_equality_and_hash():
    g1 = path_graph([1, 2])
    g2 = ColoredGraph(2, 2, [(2, 1)], {1: 1, 2: 2})
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != path_graph([2, 1])


def test_connectivity_and_tree_flags():
    assert RRBB.is_connected and RRBB.is_tree
    disc = ColoredGraph(3, 1, [(1, 2)], {1: 1, 2: 1, 3: 1})
    assert not disc.is_connected and not disc.is_tree
    cyc = ColoredGraph(3, 1, [(1, 2), (2, 3), (1, 3)], {v: 1 for v in (1, 2, 3)})
    assert cyc.is_connected and not cyc.is_tree


# --------------------------------------------------------------------------
# parsing

def test_parse_golden():
    g = parse_graph(RRBB_TEXT)
    assert g == RRBB


def test_parse_allows_comments_and_blank_lines():
    # a comment or blank line between every pair of line kinds
    text = ("c a remark\n\np ccg 3 2 2\nc mid\nv 1 1\nc v-v\nv 2 2\n\n"
            "e 1 2\nc e-e\ne 2 3\nc e-v\nv 3 2\nc end\n")
    g = parse_graph(text)
    assert g == ColoredGraph(3, 2, [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 2})
    assert g.adjacency == ((), (2,), (1, 3), (2,))


def test_parse_accepts_any_line_order_after_header():
    text = "p ccg 2 1 1\ne 1 2\nv 2 1\nv 1 1\n"
    assert parse_graph(text) == parse_graph("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 2\n")
    # every edge line before the first color line
    ordered = parse_graph(RRBB_TEXT)
    edges_first = "p ccg 4 3 2\ne 4 3\ne 2 1\ne 3 2\nv 3 2\nv 1 1\nv 4 2\nv 2 1\n"
    g = parse_graph(edges_first)
    assert g == ordered
    assert g.adjacency == ordered.adjacency


def _error_case(text, line, name, message):
    """A parse-error case; ``name`` is the short tag its test id keeps."""
    return pytest.param(text, line, message, id=f"{text}-{line}-{name}")


@pytest.mark.parametrize("text, line, message", [
    _error_case("", 1, "missing 'p ccg' header", "missing 'p ccg' header"),
    _error_case("c only a comment\n", 1, "missing 'p ccg' header",
                "missing 'p ccg' header"),
    _error_case("v 1 1\n", 1, "expected header",
                "expected header 'p ccg <n> <m> <colors>'"),
    _error_case("e 1 2\np ccg 2 1 1\nv 1 1\nv 2 1\n", 1, "expected header",
                "expected header 'p ccg <n> <m> <colors>'"),
    _error_case("p ccg 1 0\n", 1, "expected header",
                "expected header 'p ccg <n> <m> <colors>'"),
    _error_case("p ccg x 0 1\n", 1, "integers", "header fields must be integers"),
    _error_case("p ccg 0 0 1\n", 1, "malformed header counts",
                "malformed header counts n=0 m=0 colors=1"),
    _error_case("p ccg 1 0 0\n", 1, "malformed header counts",
                "malformed header counts n=1 m=0 colors=0"),
    _error_case("p ccg 1 0 1\np ccg 1 0 1\nv 1 1\n", 2, "duplicate header",
                "duplicate header"),
    _error_case("p ccg 1 0 1\nv 1\n", 2, "color line must be",
                "color line must be 'v <id> <color>'"),
    _error_case("p ccg 1 0 1\nv 1 z\n", 2, "integers",
                "color line fields must be integers"),
    _error_case("p ccg 1 0 1\nv 2 1\n", 2, "vertex id 2 out of range",
                "vertex id 2 out of range 1..1"),
    _error_case("p ccg 1 0 1\nv 1 2\n", 2, "color id 2 out of range",
                "color id 2 out of range 1..1"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 1 1\n", 3, "duplicate color line",
                "duplicate color line for vertex 1"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1\n", 4, "edge line must be",
                "edge line must be 'e <u> <w>'"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 z\n", 4, "integers",
                "edge line fields must be integers"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 3\n", 4, "out of range",
                "vertex id out of range 1..2 in edge (1,3)"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 1\n", 4, "self-loop",
                "self-loop at vertex 1"),
    _error_case("p ccg 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n", 5, "duplicate edge",
                "duplicate edge (1,2)"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 2\ne 1 2\n", 5, "duplicate edge",
                "duplicate edge (1,2)"),
    _error_case("p ccg 2 0 1\nv 1 1\nv 2 1\ne 1 2\n", 4, "more than 0 edge lines",
                "more than 0 edge lines"),
    _error_case("p ccg 3 1 1\ne 1 2\ne 2 3\nv 1 1\n", 3, "more than 1 edge lines",
                "more than 1 edge lines"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\nq 1 2\n", 4, "unrecognized line type",
                "unrecognized line type 'q'"),
    _error_case("p ccg 2 1 1\nv 1 1\ne 1 2\n", 3, "missing color line for vertex 2",
                "missing color line for vertex 2"),
    _error_case("c a\np ccg 3 2 1\nc b\ne 2 3\nc c\ne 1 2\nc d\nv 1 1\nc e\n"
                "v 3 1\nc f\n", 11, "missing color line for vertex 2",
                "missing color line for vertex 2"),
    _error_case("p ccg 1000000000000 0 1\n", 1, "missing color line for vertex 1",
                "missing color line for vertex 1"),
    _error_case("p ccg 2 2 1\nv 1 1\nv 2 1\ne 1 2\n", 4,
                "expected 2 edge lines, found 1", "expected 2 edge lines, found 1"),
    # complete bodies, so the error is the line's own and not a missing one:
    # ids and colors that are not plain spellings of 1..n keep their checks
    _error_case("p ccg 2 1 1\nv 0 1\nv 2 1\ne 1 2\n", 2, "vertex id 0 out of range",
                "vertex id 0 out of range 1..2"),
    _error_case("p ccg 2 1 1\nv 3 9\nv 2 1\ne 1 2\n", 2, "vertex id 3 out of range",
                "vertex id 3 out of range 1..2"),
    _error_case("p ccg 2 1 1\nv 1 0\nv 2 1\ne 1 2\n", 2, "color id 0 out of range",
                "color id 0 out of range 1..1"),
    _error_case("p ccg 3 2 2\nv 1 3\nv 2 1\nv 3 1\ne 1 2\ne 2 3\n", 2,
                "color id 3 out of range", "color id 3 out of range 1..2"),
    _error_case("p ccg 2 1 5\nv 1 6\nv 2 1\ne 1 2\n", 2, "color id 6 out of range",
                "color id 6 out of range 1..5"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 0 2\n", 4, "out of range",
                "vertex id out of range 1..2 in edge (0,2)"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 -2\n", 4, "out of range",
                "vertex id out of range 1..2 in edge (1,-2)"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 01\n", 4, "self-loop",
                "self-loop at vertex 1"),
    _error_case("p ccg 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 02 +1\n", 5, "duplicate edge",
                "duplicate edge (1,2)"),
    _error_case("p ccg 2 1 1\nv 1 1\nv 01 1\ne 1 2\n", 3, "duplicate color line",
                "duplicate color line for vertex 1"),
])
def test_parse_errors(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text, expected", [
    ("p ccg 2 1 1\nv 1 01\nv 2 +1\ne +1 02\n", path_graph([1, 1])),
    ("p ccg 10 9 2\n" + "".join(f"v {v} 1\n" for v in range(1, 10)) + "v 1_0 2\n"
     + "".join(f"e {v} {v + 1}\n" for v in range(1, 9)) + "e 9 1_0\n",
     path_graph([1] * 9 + [2])),
    # ARABIC-INDIC DIGIT THREE and FULLWIDTH DIGITs, which int() reads as digits
    ("p ccg 3 2 2\nv 1 1\nv 2 2\nv \u0663 2\ne 1 2\ne \uff12 \uff13\n",
     path_graph([1, 2, 2])),
    # a color above n is fine while it is within the header's color count
    ("p ccg 2 1 5\nv 1 5\nv 2 1\ne 1 2\n", ColoredGraph(2, 5, [(1, 2)], [5, 1])),
])
def test_parse_reads_ids_by_int_rules(text, expected):
    g = parse_graph(text)
    assert g == expected
    assert g.adjacency == expected.adjacency


def _peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_header_allocates_nothing_per_vertex():
    # A header alone must not size anything by n: the parser fails on the
    # first missing color line, not after building a million empty slots.
    def parse():
        with pytest.raises(ParseError) as exc:
            parse_graph("p ccg 1000000 0 1\n")
        assert str(exc.value) == "line 1: missing color line for vertex 1"
    peak = _peak_bytes(parse)
    assert peak < 2_000_000, f"parsing a bare header peaked at {peak} bytes"


def test_huge_color_count_allocates_nothing_per_color():
    c = 1_000_000_000_000
    text = f"p ccg 2 1 {c}\nv 1 {c}\nv 2 1\ne 1 2\n"
    parsed = []
    peak = _peak_bytes(lambda: parsed.append(parse_graph(text)))
    assert parsed[0] == ColoredGraph(2, c, [(1, 2)], [c, 1])
    assert format_graph(parsed[0]) == text
    assert peak < 2_000_000, f"parsing a {c}-color header peaked at {peak} bytes"


def test_commands_leave_the_edge_set_unbuilt():
    # verify and solve read the adjacency and m; the edge set is built
    # only for a caller that reads it
    text = "p ccg 5 4 2\nv 1 1\nv 2 1\nv 3 2\nv 4 2\nv 5 1\ne 1 2\ne 2 3\ne 3 4\ne 3 5\n"
    g = parse_graph(text)
    assert is_consistent(g, (1, 3, 5))
    assert not is_strict_consistent(g, (1, 3))
    assert g.is_tree and g.m == 4
    assert solve_tree_mcs(g).witness == (2, 4)
    assert g._edges is None
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (3, 5)})
    assert g._edges is g.edges


def test_format_is_canonical():
    g = ColoredGraph(4, 2, [(3, 4), (2, 3), (2, 1)], {1: 1, 2: 1, 3: 2, 4: 2})
    assert format_graph(g) == RRBB_TEXT


def test_format_parse_round_trip_drops_comments():
    text = "c note\n" + RRBB_TEXT
    assert format_graph(parse_graph(text)) == RRBB_TEXT


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    c = draw(st.integers(min_value=1, max_value=3))
    colors = {v: draw(st.integers(min_value=1, max_value=c))
              for v in range(1, n + 1)}
    edges = {(i, i + 1) for i in range(1, n)}
    for u in range(1, n + 1):
        for w in range(u + 2, n + 1):
            if draw(st.booleans()):
                edges.add((u, w))
    return ColoredGraph(n, c, edges, colors)


@st.composite
def any_graphs(draw):
    """Graphs with independently drawn edges: trees, cycles, disconnected."""
    n = draw(st.integers(min_value=1, max_value=8))
    c = draw(st.integers(min_value=1, max_value=3))
    colors = {v: draw(st.integers(min_value=1, max_value=c))
              for v in range(1, n + 1)}
    edges = {(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)
             if draw(st.booleans())}
    return ColoredGraph(n, c, edges, colors)


@given(st.one_of(connected_graphs(), any_graphs()), st.data())
def test_round_trip_any_graph(g, data):
    text = format_graph(g)
    header, *body = text.splitlines()
    body = [f"e {line.split()[2]} {line.split()[1]}" if line.startswith("e ")
            and data.draw(st.booleans()) else line for line in body]
    shuffled = "\n".join([header, *data.draw(st.permutations(body))]) + "\n"
    reachable = len(ref_distances(ref_adjacency(g.n, g.edges), 1)) == g.n
    for parsed in (parse_graph(text), parse_graph(shuffled)):
        assert parsed.m == g.m
        assert parsed.adjacency == g.adjacency
        assert parsed.edges == g.edges
        assert parsed == g
        assert hash(parsed) == hash(g)
        assert format_graph(parsed) == text
        assert parsed.is_connected == g.is_connected == reachable
        assert parsed.is_tree == g.is_tree


@given(st.one_of(connected_graphs(), any_graphs()))
def test_bulk_reader_matches_the_line_loop(g):
    # a trailing comment line sends parse_graph through its line loop
    text = format_graph(g)
    bulk = _parse_canonical(text)
    looped = parse_graph(text + "c\n")
    if max(g.color) > g.n:
        # a color id above n is not in the table of vertex ids
        assert bulk is None
        return
    assert bulk is not None
    assert bulk._edges is None
    assert (bulk.m, bulk.adjacency) == (looped.m, looped.adjacency)
    assert bulk == looped


def _large_graphs():
    yield random_tree(3000, 3, 1)
    yield random_tree(3000, 3, 2)
    yield caterpillar(600, 3, 1, 4, 7)
    yield intervals_to_graph(cubic_vc_to_intervals(complete_graph(4), p=2, q=2)[0])


@pytest.mark.parametrize("g", _large_graphs(), ids=["tree-1", "tree-2",
                                                     "caterpillar", "k4-intervals"])
def test_line_loop_matches_the_bulk_reader_on_large_files(g):
    # ids of several digits and high-degree vertices, through the loop alone:
    # a trailing comment, the body in reverse order, every edge as ``e w u``
    text = format_graph(g)
    bulk = _parse_canonical(text)
    assert bulk is not None
    header, *body = text.splitlines()
    flipped = [f"e {line.split()[2]} {line.split()[1]}" if line.startswith("e ")
               else line for line in body]
    for variant in (text + "c\n", "\n".join([header, *reversed(body)]) + "\n",
                    "\n".join([header, *flipped]) + "\n"):
        assert _parse_canonical(variant) is None
        looped = parse_graph(variant)
        assert (looped.m, looped.color, looped.adjacency) == \
            (bulk.m, bulk.color, bulk.adjacency)


@pytest.mark.parametrize("text, expected", [
    pytest.param("p ccg 2 1 1\r\nv 1 1\r\nv 2 1\r\ne 1 2\r\n",
                 path_graph([1, 1]), id="crlf"),
    pytest.param("p ccg 2 1 1\nv 1\t1\nv 2 1\ne 1 2\n", path_graph([1, 1]),
                 id="tab"),
    # a form feed ends a line for splitlines
    pytest.param("p ccg 2 1 1\nv 1\x0c1\nv 2 1\ne 1 2\n",
                 (2, "color line must be 'v <id> <color>'"), id="form-feed"),
    pytest.param("p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 2", path_graph([1, 1]),
                 id="no-final-newline"),
    pytest.param("p ccg 2 1 1\nv 01 1\nv 2 1\ne 1 2\n", path_graph([1, 1]),
                 id="leading-zero"),
    pytest.param("p ccg \u0662 1 1\nv 1 1\nv 2 1\ne 1 2\n", path_graph([1, 1]),
                 id="non-ascii-digit"),
    # NEXT LINE ends a line for splitlines
    pytest.param("p ccg 2 1 1\nv 1\x851\nv 2 1\ne 1 2\n",
                 (2, "color line must be 'v <id> <color>'"), id="next-line"),
    pytest.param("p ccg 2 1 1\nv 1 1\nv 2 1\ne 2 1\n", path_graph([1, 1]),
                 id="reversed-edge"),
    pytest.param("p ccg 3 2 1\nv 1 1\nv 2 1\nv 3 1\ne 2 3\ne 1 2\n",
                 path_graph([1, 1, 1]), id="edges-out-of-order"),
    pytest.param("p ccg 2 2 1\nv 1 1\nv 2 1\ne 1 2\ne 1 2\n",
                 (5, "duplicate edge (1,2)"), id="duplicate-edge"),
    pytest.param("p ccg 2 1 5\nv 1 5\nv 2 1\ne 1 2\n",
                 ColoredGraph(2, 5, [(1, 2)], [5, 1]), id="color-above-n"),
    pytest.param("p ccg 2 1 1\nv 1 1\nc note\nv 2 1\ne 1 2\n",
                 path_graph([1, 1]), id="comment"),
    pytest.param("p ccg 2 1 1\nv 2 1\nv 1 1\ne 1 2\n", path_graph([1, 1]),
                 id="vertices-out-of-order"),
    pytest.param("p ccg 2 1 1\nv 1 1\ne 1 2\nv 2 1\n", path_graph([1, 1]),
                 id="edge-before-vertex"),
    # the tokens of a canonical file, in lines the loop reads otherwise
    pytest.param("p ccg 1 0 1\nv 1\n1", (2, "color line must be 'v <id> <color>'"),
                 id="split-line-no-final-newline"),
    pytest.param("p ccg 1 0 1\nv 1\n1\n", (2, "color line must be 'v <id> <color>'"),
                 id="split-line"),
    pytest.param("p ccg 2 0 1\nv 1 1 v\n2 1\n",
                 (2, "color line must be 'v <id> <color>'"), id="joined-lines"),
    pytest.param("p ccg 2 1 1\ne 1 1\nv 2 1\nv 1 2\n",
                 (2, "self-loop at vertex 1"), id="edge-line-first"),
    pytest.param("p cnf 2 1 1\nv 1 1\nv 2 1\ne 1 2\n",
                 (1, "expected header 'p ccg <n> <m> <colors>'"), id="other-header"),
])
def test_bulk_reader_refuses_other_layouts(text, expected):
    assert _parse_canonical(text) is None
    if isinstance(expected, ColoredGraph):
        g = parse_graph(text)
        assert g == expected
        assert g.adjacency == expected.adjacency
    else:
        line, message = expected
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"


# --------------------------------------------------------------------------
# the two checkers

def test_checker_examples():
    assert is_consistent(RRBB, {1, 3})
    assert not is_strict_consistent(RRBB, {1, 3})   # vertex 2 ties on colors 1,2
    assert is_strict_consistent(RRBB, {2, 3})
    assert is_consistent(RRBB, {2, 3})
    assert not is_consistent(RRBB, {2})             # vertex 4's nearest is red
    assert is_consistent(RRBB, {1, 2, 3, 4})
    assert is_strict_consistent(RRBB, {1, 2, 3, 4})


def test_checker_validation():
    with pytest.raises(PreconditionError):
        is_consistent(RRBB, set())
    with pytest.raises(PreconditionError):
        is_consistent(RRBB, {5})
    disc = ColoredGraph(3, 1, [(1, 2)], {1: 1, 2: 1, 3: 1})
    with pytest.raises(PreconditionError):
        is_consistent(disc, {1})
    with pytest.raises(PreconditionError):
        is_strict_consistent(disc, {1})


def test_checkers_reject_a_disconnected_graph_with_a_member_in_each_part():
    # the scan from S reaches every vertex and passes everywhere, so
    # connectivity must be checked on its own
    disc = ColoredGraph(4, 2, [(1, 2), (3, 4)], [1, 1, 2, 2])
    for checker in (is_consistent, is_strict_consistent):
        with pytest.raises(PreconditionError, match="^graph must be connected$"):
            checker(disc, {1, 3})


@pytest.mark.parametrize("members,bad", [([5], "5"), ([True, 2], "True"),
                                         ([2.0], "2.0"), ([1, 3.0], "3.0")])
def test_checkers_reject_a_member_that_is_not_a_vertex(members, bad):
    for checker in (is_consistent, is_strict_consistent):
        with pytest.raises(PreconditionError,
                           match=f"^subset vertex {bad} not in graph$"):
            checker(RRBB, members)


@given(connected_graphs(), st.data())
def test_checkers_agree_with_reference(g, data):
    subset = data.draw(
        st.sets(st.integers(min_value=1, max_value=g.n), min_size=1))
    colors = {v: g.color[v] for v in range(1, g.n + 1)}
    assert is_consistent(g, subset) == ref_is_consistent(
        g.n, colors, g.edges, subset)
    assert is_strict_consistent(g, subset) == ref_is_consistent(
        g.n, colors, g.edges, subset, strict=True)


def test_checkers_on_long_path():
    # 3,001 vertices: 1-1500 red, 1501-3001 blue; vertex 1501 is 1500 hops
    # from both ends, so it ties between a red and a blue member.
    g = path_graph([1] * 1500 + [2] * 1501)
    assert is_consistent(g, {1, 3001})
    assert not is_strict_consistent(g, {1, 3001})
    assert is_consistent(g, {1500, 1501})
    assert is_strict_consistent(g, {1500, 1501})
    assert not is_consistent(g, {1, 1501})


@given(connected_graphs(), st.data())
def test_full_set_is_strict_and_strict_implies_consistent(g, data):
    everyone = frozenset(range(1, g.n + 1))
    assert is_strict_consistent(g, everyone)
    assert is_consistent(g, everyone)
    subset = frozenset(data.draw(
        st.sets(st.integers(min_value=1, max_value=g.n), min_size=1)))
    if is_strict_consistent(g, subset):
        assert is_consistent(g, subset)


@given(connected_graphs(), st.data())
def test_consistent_subset_covers_all_colors(g, data):
    subset = frozenset(data.draw(
        st.sets(st.integers(min_value=1, max_value=g.n), min_size=1)))
    if is_consistent(g, subset):
        used = {g.color[v] for v in range(1, g.n + 1)}
        assert {g.color[v] for v in subset} == used


# --------------------------------------------------------------------------
# blocks

def test_blocks_examples():
    assert blocks(RRBB) == (frozenset({1, 2}), frozenset({3, 4}))
    rbr = path_graph([1, 2, 1])
    assert blocks(rbr) == (frozenset({1}), frozenset({2}), frozenset({3}))
    mono = path_graph([1, 1, 1])
    assert blocks(mono) == (frozenset({1, 2, 3}),)
    assert len(blocks(mono)) == 1


def test_blocks_index_map():
    # ordered by smallest member, so a block's index is its position
    path = ColoredGraph(5, 2, [(1, 5), (1, 2), (2, 3), (3, 4)],
                        {1: 1, 2: 2, 3: 1, 4: 1, 5: 1})
    assert blocks(path) == (frozenset({1, 5}), frozenset({2}), frozenset({3, 4}))
    index = {v: i for i, part in enumerate(blocks(RRBB)) for v in part}
    assert index[1] == index[2] == 0
    assert index[3] == index[4] == 1


@given(connected_graphs())
def test_blocks_partition_and_quotient(g):
    b = blocks(g)
    block_of = {v: i for i, part in enumerate(b) for v in part}
    seen = set()
    for part in b:
        assert len({g.color[v] for v in part}) == 1
        assert not (seen & part)
        seen |= part
    assert seen == set(range(1, g.n + 1))
    # contracting blocks must leave no same-colored neighbors across blocks
    for u, w in g.edges:
        if block_of[u] != block_of[w]:
            assert g.color[u] != g.color[w]


# --------------------------------------------------------------------------
# subset files and certificates

def test_parse_subset_golden():
    assert parse_subset("s 1 3\n", 4) == (1, 3)
    assert parse_subset("c remark\ns 2\n", 4) == (2,)


@pytest.mark.parametrize("text, fragment", [
    ("", "missing subset line"),
    ("c nothing\n", "missing subset line"),
    ("x 1\n", "expected subset line"),
    ("s\n", "at least one vertex"),
    ("s 1 1\n", "strictly increasing"),
    ("s 3 1\n", "strictly increasing"),
    ("s 1 9\n", "out of range"),
    ("s one\n", "integers"),
    ("s 1\ns 2\n", "duplicate subset line"),
])
def test_parse_subset_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_subset(text, 4)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("text, n, message", [
    ("s 1 2 3 4\n", 2, "vertex id 3 out of range 1..2"),
    ("s 0 5\n", 2, "vertex id 0 out of range 1..2"),
    # a decreasing pair is named before an id out of range
    ("s 0 9 3\n", 4, "subset ids must be strictly increasing"),
    ("s 1 x\n", 3, "subset ids must be integers"),
])
def test_parse_subset_error_order(text, n, message):
    with pytest.raises(ParseError) as exc:
        parse_subset(text, n)
    assert str(exc.value) == f"line 1: {message}"


def test_format_subset():
    assert format_subset([3, 1]) == "s 1 3\n"
    assert format_subset({2}) == "s 2\n"
    with pytest.raises(ValueError):
        format_subset([])


def test_subset_round_trip():
    assert parse_subset(format_subset([4, 2, 1]), 4) == (1, 2, 4)


def test_certificate_validation():
    Certificate("mcs", (1, 3), 2, "constructed")
    with pytest.raises(ValueError):
        Certificate("other", (1,), 1, "constructed")
    with pytest.raises(ValueError):
        Certificate("mcs", (), 0, "constructed")
    with pytest.raises(ValueError):
        Certificate("mcs", (3, 1), 2, "constructed")
    with pytest.raises(ValueError):
        Certificate("mcs", (1, 3), 3, "constructed")


def test_star_checker():
    star = star_graph(1, [2, 2, 2])
    assert is_consistent(star, {1, 2, 3, 4})
    # leaf 3's unique nearest member is the differently-colored center
    assert not is_consistent(star, {1, 2})
