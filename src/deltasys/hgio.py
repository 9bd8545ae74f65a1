"""Plain-text hypergraph format: header line "n k", one edge per line.

Lines whose first non-blank character is '#' are comments; blank lines are
ignored. Serialization is canonical (sorted edges in lexicographic order),
so parse(serialize(h)) == h.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from operator import lt
from typing import NoReturn

from .errors import FormatError
from .hypergraph import MAX_VERTICES, Edge, Hypergraph, check_order


class _Tokens(dict):
    """Token -> int: "1".."128" from the table, any other token through
    `int`, so "007", "+3" and "1_0" read as `int` reads them."""

    def __missing__(self, token: str) -> int:
        return int(token)


_INT = _Tokens((str(v), v) for v in range(1, MAX_VERTICES + 1)).__getitem__


def _ascending(cols) -> bool:
    """Whether every row across the columns is strictly ascending."""
    return all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format, refusing the first bad line with its number.

    Each line is split once; the edge lines are then checked a column at a
    time (arity, repeated vertex, range, duplicate). If any check fails,
    `_refuse_first_bad_line` walks the lines to name the first bad one.
    After every edge line has passed, the vertex cap of `Hypergraph` is
    checked, and the sorted edges fill the `Hypergraph` directly.
    """
    lines = text.splitlines()
    rows = list(filter(None, map(str.split, lines)))
    if "#" in text:
        rows = [r for r in rows if r[0][0] != "#"]
    read = _read_edges(rows)
    if read is None:
        _refuse_first_bad_line(lines)
    n, k, edges = read
    check_order(n, k)
    return Hypergraph._checked(n, k, edges)


def _read_edges(rows: list[list[str]]) -> tuple[int, int, list[Edge]] | None:
    """(n, k, the edges sorted) when the header and every edge row pass
    their checks, else None.

    Column j holds the j-th token of every edge row. The rows are strictly
    ascending when each column is below the next, pairwise; if they are
    not, each row is sorted and the test repeated, and failing it again
    means a repeated vertex. Then the first column's minimum and the last
    column's maximum check the range, and the edge list, sorted unless it
    already ascends, is strictly ascending exactly when no edge repeats.
    """
    try:
        values = list(map(_INT, chain.from_iterable(rows)))
    except ValueError:
        return None
    if not rows or len(rows[0]) != 2:
        return None
    n, k = values[0], values[1]
    if n < 1 or not 1 <= k <= n:
        return None
    if len(rows) == 1:
        return n, k, []
    # every edge row holds k tokens, so k is bounded by the text's length
    if set(map(len, islice(rows, 1, None))) != {k}:
        return None
    cols = [values[j::k] for j in range(2, 2 + k)]
    if _ascending(cols):
        edges = list(zip(*cols))
    else:
        edges = list(map(tuple, map(sorted, zip(*cols))))
        cols = list(zip(*edges))
        if not _ascending(cols):
            return None
    if min(cols[0]) < 1 or max(cols[-1]) > n:
        return None
    if not all(map(lt, edges, islice(edges, 1, None))):
        edges.sort()
        if not all(map(lt, edges, islice(edges, 1, None))):
            return None
    return n, k, edges


def _refuse_first_bad_line(lines: list[str]) -> NoReturn:
    """Raise the FormatError of the first line that fails its checks, run
    line by line in the order token, arity, repeated vertex, range,
    duplicate; no line is kept and no `Hypergraph` is built."""
    header: tuple[int, int] | None = None
    seen: set[Edge] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = list(map(int, line.split()))
        except ValueError:
            raise FormatError(lineno, f"non-integer token in {line!r}")
        if header is None:
            if len(values) != 2:
                raise FormatError(lineno, "header must be exactly two integers: n k")
            n, k = values
            if n < 1 or not 1 <= k <= n:
                raise FormatError(lineno, f"invalid header n={n} k={k}")
            header = (n, k)
            continue
        n, k = header
        if len(values) != k:
            raise FormatError(lineno, f"edge has {len(values)} vertices, expected {k}")
        if len(set(values)) != k:
            raise FormatError(lineno, "repeated vertex within an edge")
        edge = tuple(sorted(values))
        if edge[0] < 1 or edge[-1] > n:
            v = next(v for v in values if not 1 <= v <= n)
            raise FormatError(lineno, f"vertex {v} out of range 1..{n}")
        if edge in seen:
            raise FormatError(lineno, f"duplicate edge {edge}")
        seen.add(edge)
    if header is None:
        raise FormatError(1, "missing header line 'n k'")
    raise AssertionError("the column checks refused a text whose every line passes")


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.k}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def load_hypergraph(path: str | os.PathLike) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def save_hypergraph(h: Hypergraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_hypergraph(h))
