"""Intersection structures of edges, k-partite projections, and pattern rank."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ParameterError, check_int
from .hypergraph import Edge, Hypergraph, vertex_tuple


def intersection_structure(h: Hypergraph, edge: Iterable[int]) -> set[Edge]:
    """All intersections of the given edge with the other edges of h.

    The empty tuple appears whenever some edge is disjoint from the given one.
    """
    e = vertex_tuple(edge)
    if e not in h:
        raise ParameterError(f"{e} is not an edge of the hypergraph")
    es = set(e)
    out: set[Edge] = set()
    for other in h.edges:
        if other == e:
            continue
        out.add(tuple(v for v in other if v in es))
    return out


def validate_vertex_partition(n: int, parts: Sequence[Iterable[int]]) -> tuple[Edge, ...]:
    """Check that parts are disjoint and cover {1..n}; return them normalized."""
    norm = tuple(vertex_tuple(p) for p in parts)
    seen: set[int] = set()
    total = 0
    for p in norm:
        for v in p:
            if v > n:
                raise ParameterError(f"partition uses vertex {v} above n={n}")
        total += len(p)
        seen.update(p)
    if total != n or len(seen) != n:
        raise ParameterError("parts must be disjoint and cover every vertex exactly once")
    return norm


def project(vertices: Iterable[int], parts: Sequence[Iterable[int]],
            n: int | None = None) -> frozenset[int]:
    """The set of 1-based part indices met by the given vertex set."""
    vs = vertex_tuple(vertices)
    norm = tuple(vertex_tuple(p) for p in parts)
    covered = {v: i for i, p in enumerate(norm, start=1) for v in p}
    if n is not None:
        validate_vertex_partition(n, norm)
    out = set()
    for v in vs:
        if v not in covered:
            raise ParameterError(f"vertex {v} lies outside the partition")
        out.add(covered[v])
    return frozenset(out)


@dataclass(frozen=True)
class IntersectionPattern:
    """A family of proper subsets of {1..k}.

    Members are projections of edge intersections, so the full set {1..k}
    never appears; the empty set may.
    """

    k: int
    sets: frozenset[frozenset[int]]

    def __post_init__(self):
        check_int("k", self.k, 1)
        ground = set(range(1, self.k + 1))
        for s in self.sets:
            if not s <= ground:
                raise ParameterError(f"pattern member {sorted(s)} is not a subset of 1..{self.k}")
            if len(s) == self.k:
                raise ParameterError("pattern members must be proper subsets")

    @classmethod
    def of(cls, k: int, sets: Iterable[Iterable[int]]) -> "IntersectionPattern":
        return cls(k, frozenset(frozenset(s) for s in sets))

    @property
    def is_closed(self) -> bool:
        """True when the intersection of any two members is again a member."""
        return self.open_pair() is None

    def open_pair(self) -> tuple[Edge, Edge] | None:
        """The first pair of `sorted_sets()`, in combinations order, whose
        intersection is not a member, or None when the pattern is closed."""
        for a, b in combinations(self.sorted_sets(), 2):
            if frozenset(a).intersection(b) not in self.sets:
                return a, b
        return None

    def sorted_sets(self) -> tuple[Edge, ...]:
        """Canonical presentation: members sorted by size then lexicographically."""
        return tuple(sorted((tuple(sorted(s)) for s in self.sets), key=lambda t: (len(t), t)))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.sorted_sets())
        return f"IntersectionPattern(k={self.k}, {{{inner}}})"


def rank(pattern: IntersectionPattern) -> int:
    """Smallest size of a subset of {1..k} outside the pattern's up-closure.

    That is, the least |A| with A not a member and A contained in no member.
    The whole set {1..k} always qualifies, so the value lies in 0..k, and it
    equals k exactly when the pattern holds every proper subset.
    """
    ground = tuple(range(1, pattern.k + 1))
    for size in range(0, pattern.k + 1):
        for combo in combinations(ground, size):
            a = frozenset(combo)
            if a in pattern.sets:
                continue
            if any(a <= b for b in pattern.sets):
                continue
            return size
    raise AssertionError("unreachable: the full ground set always qualifies")
