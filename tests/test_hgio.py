"""Text round-trips and parse failures for the hypergraph file format."""

import random

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
from conftest import random_hypergraph


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
    "text,line",
    [
        ("", 1),                       # no header at all
        ("# only comments\n", 1),
        ("5\n", 1),                    # header arity
        ("5 3 1\n", 1),
        ("0 3\n", 1),                  # header range
        ("3 4\n", 1),
        ("x 3\n", 1),                  # header token
        ("5 3\n1 2\n", 2),             # edge arity
        ("5 3\n1 2 3 4\n", 2),
        ("5 3\n1 2 z\n", 2),           # edge token
        ("5 3\n1 1 2\n", 2),           # repeated vertex
        ("5 3\n1 2 6\n", 2),           # out of range
        ("5 3\n0 1 2\n", 2),
        ("5 3\n1 2 3\n3 2 1\n", 3),    # duplicate edge
        ("5 3\n# pad\n\n1 2 3\n1 2 3\n", 5),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(FormatError) as exc:
        parse_hypergraph(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text", ["129 3\n", "129 3\n1 2 3\n", "200 4\n# pad\n1 2 3 200\n"])
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
