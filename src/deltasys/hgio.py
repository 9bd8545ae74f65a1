"""Plain-text hypergraph format: header line "n k", one sorted edge per line.

Lines starting with '#' are comments; blank lines are ignored. Serialization
is canonical (lexicographic edge order), so parse(serialize(h)) == h.
"""

from __future__ import annotations

import os

from .errors import FormatError
from .hypergraph import Hypergraph, check_order


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format, refusing the first bad line with its number.

    Each edge line is checked (arity, repeated vertex, range, duplicate)
    and sorted once, as it is read. After the last line, the vertex cap of
    `Hypergraph` is checked, and the edges, sorted, fill the `Hypergraph`
    directly: they are not normalized and checked a second time.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        edges.append(edge)
    if header is None:
        raise FormatError(1, "missing header line 'n k'")
    n, k = header
    check_order(n, k)
    edges.sort()
    return Hypergraph._checked(n, k, edges)


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
