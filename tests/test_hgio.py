"""Text round-trips and parse failures for the hypergraph file format."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deltasys import (
    FormatError,
    Hypergraph,
    ParameterError,
    load_hypergraph,
    parse_hypergraph,
    save_hypergraph,
    serialize_hypergraph,
)
from deltasys.cli import main as cli_main
from conftest import random_hypergraph, reference_parse_hypergraph

README = Path(__file__).resolve().parent.parent / "README.md"


def test_parse_basic():
    h = parse_hypergraph("5 3\n1 2 3\n1 4 5\n")
    assert (h.n, h.k) == (5, 3)
    assert h.edges == ((1, 2, 3), (1, 4, 5))


def test_comments_blanks_and_unsorted_edges():
    text = """
    # a comment
    6 3

    3 2 1
    # another
    6 5 4
    """
    h = parse_hypergraph(text)
    assert h.edges == ((1, 2, 3), (4, 5, 6))


def test_serialize_is_canonical():
    a = Hypergraph(5, 3, [(1, 4, 5), (1, 2, 3)])
    b = Hypergraph(5, 3, [(1, 2, 3), (1, 4, 5)])
    assert serialize_hypergraph(a) == serialize_hypergraph(b) == "5 3\n1 2 3\n1 4 5\n"


def test_round_trip_random(tmp_path):
    rng = random.Random(99)
    for i in range(25):
        h = random_hypergraph(rng)
        assert parse_hypergraph(serialize_hypergraph(h)) == h
    path = tmp_path / "h.txt"
    save_hypergraph(h, path)
    assert load_hypergraph(path) == h


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("", 1, "missing header line 'n k'"),   # no header at all
        ("# only comments\n", 1, "missing header line 'n k'"),
        ("5\n", 1, "header must be exactly two integers: n k"),
        ("5 3 1\n", 1, "header must be exactly two integers: n k"),
        ("0 3\n", 1, "invalid header n=0 k=3"),
        ("3 4\n", 1, "invalid header n=3 k=4"),
        ("x 3\n", 1, "non-integer token in 'x 3'"),
        ("5 3\n1 2\n", 2, "edge has 2 vertices, expected 3"),
        ("5 3\n1 2 3 4\n", 2, "edge has 4 vertices, expected 3"),
        ("5 3\n1 2 z\n", 2, "non-integer token in '1 2 z'"),
        ("5 3\n1 1 2\n", 2, "repeated vertex within an edge"),
        ("5 3\n1 2 6\n", 2, "vertex 6 out of range 1..5"),
        ("5 3\n0 1 2\n", 2, "vertex 0 out of range 1..5"),
        ("5 3\n1 2 3\n3 2 1\n", 3, "duplicate edge (1, 2, 3)"),
        ("5 3\n# pad\n\n1 2 3\n1 2 3\n", 5, "duplicate edge (1, 2, 3)"),
        ("5 3\n1 2 3  # no\n", 2, "non-integer token in '1 2 3  # no'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(FormatError) as exc:
        parse_hypergraph(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text", ["129 3\n", "129 3\n1 2 3\n", "200 4\n# pad\n1 2 3 200\n",
                                  "1000000000 999999999\n"])
def test_vertex_cap_holds_on_the_load_path(tmp_path, capsys, text):
    path = tmp_path / "cap.txt"
    path.write_text(text)
    with pytest.raises(ParameterError, match="exceeds the vertex cap 128"):
        load_hypergraph(path)
    assert cli_main(["shadow", str(path), "--order", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the vertex cap 128" in captured.err


def test_edge_errors_come_before_the_vertex_cap():
    with pytest.raises(FormatError) as exc:
        parse_hypergraph("129 3\n1 2 3\n1 2 130\n")
    assert exc.value.line == 3


def test_empty_edge_list_is_fine():
    h = parse_hypergraph("7 3\n")
    assert h.edges == ()
    assert parse_hypergraph(serialize_hypergraph(h)) == h


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    k = data.draw(st.integers(min_value=1, max_value=min(4, n)))
    edges = data.draw(
        st.sets(
            st.frozensets(st.integers(1, n), min_size=k, max_size=k),
            max_size=15,
        )
    )
    h = Hypergraph(n, k, [tuple(sorted(e)) for e in edges])
    assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_readme_example_parses():
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert parse_hypergraph(block) == Hypergraph(5, 3, [(1, 2, 3), (1, 4, 5)])


# every separator `str.splitlines` breaks a line at
SEPARATORS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029")


@st.composite
def hypergraph_texts(draw):
    """Texts near the format: mostly valid lines in any order and spacing,
    with tokens `int` reads in other spellings, and now and then a bad
    token, a wrong arity, a repeated vertex, a vertex 0 or n+1, a duplicate
    edge, a bad header or a header above the vertex cap."""
    n = draw(st.sampled_from(tuple(range(1, 10)) + tuple(range(6, 10)) * 3 + (129, 130)))
    k = draw(st.integers(1, min(n, 4)))

    def token(v):
        s = str(v)
        spelling = draw(st.sampled_from("pppppppppp0+_"))
        if spelling == "0":
            return "00" + s
        if spelling == "+":
            return "+" + s
        if spelling == "_" and v >= 10:
            return s[0] + "_" + s[1:]
        return s

    def row(values):
        gap = draw(st.sampled_from((" ", " ", "  ", "\t")))
        line = gap.join(map(token, values))
        return draw(st.sampled_from(("", "", " ", "\t"))) + line + draw(st.sampled_from(("", "", " ")))

    header = draw(st.sampled_from(((n, k),) * 20 + ((n,), (n, k, 1), (0, k), (n, n + 1))))
    lines = [row(header)]
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("edge",) * 16 + ("token", "arity", "repeat", "range",
                                                        "duplicate", "comment", "blank")))
        if kind == "comment":   # the last one is not a comment: "#" starts no line
            lines.append(draw(st.sampled_from(("# a comment", "  #1 2 3", "#", "1 2 # 3"))))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", "   ", "\t"))))
            continue
        edge = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        if kind == "arity":
            edge = edge + [edge[0]] if draw(st.booleans()) else edge[:-1]
        elif kind == "repeat" and k > 1:
            edge[-1] = edge[0]
        elif kind == "range":
            edge[draw(st.integers(0, k - 1))] = draw(st.sampled_from((0, n + 1)))
        elif kind == "duplicate" and edges:
            edge = draw(st.permutations(draw(st.sampled_from(edges))))
        edges.append(edge)
        lines.append(row(edge) + (" x" if kind == "token" else ""))
    if draw(st.booleans()):
        lines.insert(0, "# leading comment")
    return "".join(line + draw(st.sampled_from(SEPARATORS)) for line in lines)


def parse_outcome(parse, text):
    """What `parse` makes of `text`: the hypergraph's fields, or the error's
    type, line and message."""
    try:
        h = parse(text)
    except (FormatError, ParameterError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return h.n, h.k, h.edges, h.edge_masks, h._edge_set


@settings(max_examples=300, deadline=None)
@given(hypergraph_texts())
def test_parse_matches_the_line_loop(text):
    assert parse_outcome(parse_hypergraph, text) == parse_outcome(reference_parse_hypergraph, text)
