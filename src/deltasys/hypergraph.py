"""k-uniform hypergraphs on {1..n}: bitmask edges and their meets, shadows,
subset degrees, and exact edge weights."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, repeat
from math import comb
from operator import and_
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError, UniformityError, check_int

Edge = tuple[int, ...]

#: Vertex labels live in 1..n, and n may not exceed this cap.
MAX_VERTICES = 128

# _BIT[v] is vertex v's bit in an edge mask, for v in 1..MAX_VERTICES
_BIT = [0] + [1 << v for v in range(MAX_VERTICES)]


def vertex_tuple(vertices: Iterable[int]) -> Edge:
    """Normalize a vertex collection to a sorted duplicate-free tuple; each
    vertex must first pass `check_int` as a "vertex label" in
    1..MAX_VERTICES, so no mask built from it outgrows the cap."""
    return tuple(sorted({check_int("vertex label", v, 1, MAX_VERTICES) for v in vertices}))


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertices into a bitmask (vertex v occupies bit v-1)."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> Edge:
    """Unpack a bitmask into an ascending vertex tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def meet(masks: Iterable[int]) -> int:
    """Bitwise AND of the masks: the vertices they all share.

    The meet of no masks is -1, every bit set, so it meets everything.
    """
    return reduce(and_, masks, -1)


def holders_of(members: Iterable[Iterable[int]]) -> dict[int, int]:
    """holders[v]: the bitset of the members holding vertex v (bit i for
    member i), for every vertex some member holds, in one pass."""
    holders: dict[int, int] = {}
    bit = 1
    for e in members:
        for v in e:
            holders[v] = holders.get(v, 0) | bit
        bit <<= 1
    return holders


Meets = tuple[tuple[int, ...], ...]

#: The carried meets of no members: the meet of the empty subset, every vertex.
NO_MEETS: Meets = ((-1,),)


def join_meets(meets: Meets, m: int, d: int) -> Meets:
    """The carried meets of some members, once the member with mask m joins them.

    meets[j] holds the meets of every j-subset of the members, for j up to
    min(|members|, d-2); each new j-subset is an old (j-1)-subset with m
    added. A candidate can join the members and a new member s of mask m
    in a d-wise intersecting family only if it meets the meet of s with
    each min(|members|, d-2) members: the meets `y & m` for y in the last
    level. So narrowing the candidates as s is picked is one
    `meeting[y & m]` lookup per carried meet y.
    """
    out = [meets[0]]
    low = meets[0]
    for high in meets[1:]:
        out.append(high + tuple([y & m for y in low]))
        low = high
    if len(meets) < d - 1:
        out.append(tuple([y & m for y in low]))
    return tuple(out)


class Meeting(dict):
    """meeting[x]: the members meeting the vertex set x, built on first use.

    Members are the vertex bitmasks `masks`; a set of members is a bitmask
    over their positions. `holders` is `holders_of` the members, each
    decoded from its mask once; every member's row, meeting[masks[i]], is
    filled in from the same decoding before the first lookup.
    """

    def __init__(self, masks: Sequence[int]):
        self.masks = masks
        own = list(map(vertices_of, masks))
        self.holders = holders = holders_of(own)
        for m, vs in zip(masks, own):
            row = 0
            for v in vs:
                row |= holders[v]
            self[m] = row

    def __missing__(self, x: int) -> int:
        holders = self.holders
        out = 0
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            out |= holders.get(low.bit_length(), 0)
        self[x] = out
        return out

    def kept(self, common: int, bits: int) -> int:
        """The vertices of `common` that every member in `bits` holds."""
        holders = self.holders
        out = 0
        rest = common
        while rest:
            low = rest & -rest
            rest ^= low
            if not bits & ~holders.get(low.bit_length(), 0):
                out |= low
        return out


def check_order(n: int, k: int) -> None:
    """Refuse a vertex count or uniformity no hypergraph on {1..n} may have."""
    if check_int("n", n, 1) > MAX_VERTICES:
        raise ParameterError(f"n={n} exceeds the vertex cap {MAX_VERTICES}")
    check_int("k", k, 1, n)


def _sorted_distinct(edges: list[Edge]) -> list[Edge]:
    """Sort normalized edges in place and refuse the first repeated one."""
    edges.sort()
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise ParameterError(f"duplicate edge {a}")
    return edges


class Hypergraph:
    """An immutable k-uniform hypergraph on vertex set {1, ..., n}.

    Edges are kept as lexicographically sorted tuples; a parallel tuple of
    bitmasks backs the set operations. Duplicate edges are rejected.
    """

    __slots__ = ("n", "k", "edges", "edge_masks", "_edge_set")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]]):
        check_order(n, k)
        normalized = []
        for raw in edges:
            e = vertex_tuple(raw)
            if len(e) != k:
                raise ParameterError(f"edge {tuple(raw)!r} has {len(e)} distinct vertices, expected {k}")
            if e[-1] > n:
                raise ParameterError(f"edge {e} uses a vertex above n={n}")
            normalized.append(e)
        self._fill(n, k, _sorted_distinct(normalized))

    @classmethod
    def _checked(cls, n: int, k: int, edges: list[Edge]) -> "Hypergraph":
        """A hypergraph from edges a caller has already normalized and checked.

        `edges` must be sorted tuples of k vertices in 1..n, pairwise
        distinct, in lexicographic order; n and k must pass `check_order`.
        """
        h = cls.__new__(cls)
        h._fill(n, k, edges)
        return h

    def _fill(self, n: int, k: int, edges: list[Edge]) -> None:
        self.n = n
        self.k = k
        self.edges: tuple[Edge, ...] = tuple(edges)
        # built a column of vertices at a time; an edge's vertices are
        # distinct, so the sum of their bits is their OR
        bits = [map(_BIT.__getitem__, col) for col in zip(*edges)]
        self.edge_masks: tuple[int, ...] = tuple(map(sum, zip(*bits)))
        self._edge_set = frozenset(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __contains__(self, edge: Iterable[int]) -> bool:
        return vertex_tuple(edge) in self._edge_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.k, self.edges) == (other.n, other.k, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, {len(self.edges)} edges)"

    def restrict(self, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Subgraph on the same vertex set; every edge must already be present."""
        sub = [vertex_tuple(e) for e in edges]
        for e in sub:
            if e not in self._edge_set:
                raise ParameterError(f"{e} is not an edge of this hypergraph")
        return Hypergraph._checked(self.n, self.k, _sorted_distinct(sub))

    def degree(self, v: int) -> int:
        """Number of edges containing vertex v, a "vertex label" in
        1..MAX_VERTICES as for `vertex_tuple`; a label above n has none."""
        bit = 1 << (check_int("vertex label", v, 1, MAX_VERTICES) - 1)
        return sum(1 for m in self.edge_masks if m & bit)


def _subsets(h: Hypergraph, size: int) -> Iterator[Edge]:
    """Every size-subset of every edge, edge by edge, walked in C."""
    return chain.from_iterable(map(combinations, h.edges, repeat(size)))


def shadow(h: Hypergraph, i: int) -> set[Edge]:
    """The i-th shadow: all (k-i)-subsets contained in at least one edge.

    i ranges over 0..k-1; shadow(h, 0) is the edge set itself.
    """
    check_int("shadow order", i, 0, h.k - 1)
    return set(_subsets(h, h.k - i))


def subset_degrees(h: Hypergraph, size: int) -> Counter[Edge]:
    """Map each size-subset lying in some edge to the number of edges containing it.

    One pass over the edges. Subsets in no edge are absent, so `.get(s, 0)`
    gives the codegree of any sorted vertex tuple s of that size. size ranges
    over 0..k; size 0 maps the empty tuple to |H| when h has edges.
    """
    check_int("subset size", size, 0, h.k)
    return Counter(_subsets(h, size))


def codegree(h: Hypergraph, vertices: Iterable[int]) -> int:
    """Number of edges containing every vertex of the given set.

    The empty set has codegree |H|; sets too large to fit in an edge get 0.
    A single query rescans the edges; `subset_degrees` tabulates a whole size.
    """
    m = mask_of(vertex_tuple(vertices))
    return sum(1 for em in h.edge_masks if em & m == m)


def _require_triples(h: Hypergraph, what: str) -> None:
    """Refuse a non-3-graph; `what` names the pair-codegree statistic asked for."""
    if h.k != 3:
        raise UniformityError(f"pair-codegree {what} is defined for k=3 only, got k={h.k}")


def _pair_table(h: Hypergraph, what: str) -> Counter[Edge]:
    """The pair-degree table of a 3-graph; `what` names the caller's statistic."""
    _require_triples(h, what)
    return subset_degrees(h, 2)


def max_codegree2(h: Hypergraph) -> int:
    """Maximum codegree over vertex pairs, 0 without edges; defined for 3-graphs only."""
    return max(_pair_table(h, "maximum").values(), default=0)


def codegree_histogram(h: Hypergraph) -> dict[int, int]:
    """Map codegree value -> number of vertex pairs attaining it (k=3 only).

    Pairs covered by no edge, C(n, 2) minus the pairs in the table, are
    counted under 0.
    """
    table = _pair_table(h, "histogram")
    hist = dict(Counter(table.values()))
    uncovered = comb(h.n, 2) - len(table)
    if uncovered:
        hist[0] = uncovered
    return hist


def edge_weight(h: Hypergraph, edge: Iterable[int]) -> Fraction:
    """Sum of 1/deg over the (k-1)-subsets of an edge, as an exact rational.

    deg counts the edges of h containing the subset; the edge itself always
    contributes, so every denominator is at least 1. A single query rescans
    the edges for each subset; `weight_identity` sums every edge in one pass.
    """
    e = vertex_tuple(edge)
    if e not in h._edge_set:
        raise ParameterError(f"{e} is not an edge of the hypergraph")
    total = Fraction(0)
    for sub in combinations(e, h.k - 1):
        total += Fraction(1, codegree(h, sub))
    return total


def weight_identity(h: Hypergraph) -> tuple[Fraction, int]:
    """Return (sum of all edge weights, size of the 1-shadow).

    The two components are equal for every hypergraph: grouping the sum by
    (k-1)-subset, each subset covered by the hypergraph contributes exactly 1.
    The (k-1)-subset degrees are tabulated in one walk over the edges'
    (k-1)-subsets; a second walk counts those (edge, subset) pairs by their
    degree d, and the sum is the exact sum of count/d over the distinct
    degrees, the same sum in a different order. The shadow is counted
    separately with `shadow(h, 1)`.
    """
    deg = subset_degrees(h, h.k - 1)
    by_degree = Counter(map(deg.__getitem__, _subsets(h, h.k - 1)))
    total = sum((Fraction(count, d) for d, count in by_degree.items()), Fraction(0))
    if h.k == 1:
        return total, (1 if h.edges else 0)
    return total, len(shadow(h, 1))
