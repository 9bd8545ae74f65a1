"""Homogeneous subgraphs of vertex-partitioned uniform hypergraphs.

A subgraph is homogeneous for a k-part vertex partition and a petal count s
when: every edge is rainbow (one vertex per part); projecting each edge's
intersections with the other edges onto part indices yields one pattern J
shared by all edges; J is closed under intersection; and every concrete
intersection S of an edge E with another edge extends to an s-petal
sunflower inside the subgraph with center S and E among its petals.

The pattern's rank caps the subgraph size through a shadow count, which is
what makes extracted homogeneous subgraphs useful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .errors import ParameterError, check_int
from .hypergraph import Edge, Hypergraph, holders_of, mask_of, shadow, vertices_of
from .patterns import IntersectionPattern, rank, validate_vertex_partition
from .sunflowers import disjoint_picks

# (edge, center, petals): the edge's sunflower witness for one intersection
SunflowerWitness = tuple[Edge, Edge, tuple[Edge, ...]]


@dataclass(frozen=True)
class HomogeneousCertificate:
    subgraph: Hypergraph
    partition: tuple[Edge, ...]
    pattern: IntersectionPattern
    s: int
    witnesses: tuple[SunflowerWitness, ...]

    def to_json(self) -> dict:
        return {
            "n": self.subgraph.n,
            "k": self.subgraph.k,
            "s": self.s,
            "partition": self.partition,
            "edges": self.subgraph.edges,
            "pattern": self.pattern.sorted_sets(),
            "rank": rank(self.pattern),
            "witnesses": [{"edge": e, "center": c, "petals": ps}
                          for e, c, ps in self.witnesses],
        }


@dataclass(frozen=True)
class HomogeneousCheck:
    ok: bool
    certificate: HomogeneousCertificate | None = None
    failure: str | None = None
    detail: str | None = None


class _MaskIndex:
    """Bitmask view of one subgraph under one vertex partition.

    `meets[i]` maps each mask of edge i's intersections with the other
    edges, the set `intersection_structure` lists, to the bitset of the
    edges that meet edge i in exactly that mask (bit j for edge j). It
    comes from splitting the other edges' bitset by each vertex v of edge i
    in turn, into the part inside v's holders (`holders_of` the edge
    tuples) and the part outside; empty parts are dropped, and each part
    left is one entry. That is at most k * min(2^k, |E|) big-int ANDs per
    edge, not |E|. `project(mask)` is the part mask of a vertex mask, bit
    p-1 for each part p it meets, and `pattern(i)` is the set of the part
    masks of edge i's meets (`vertices_of` decodes a part mask). A part
    mask and a meet's vertex tuple are computed once per distinct mask.
    """

    __slots__ = ("edges", "masks", "meets", "project", "_vertices")

    def __init__(self, edges: Sequence[Edge], masks: Sequence[int],
                 parts: Sequence[Edge]):
        self.edges = edges
        self.masks = masks
        holders = holders_of(edges)
        everything = (1 << len(edges)) - 1
        self.meets: list[dict[int, int]] = []
        for i, e in enumerate(edges):
            # meet so far -> edges, starting from every edge but i; the leaf
            # inside every split is empty, as edges are distinct k-sets, so
            # no meet is edge i's own mask
            branches = {0: everything ^ (1 << i)}
            for v in e:
                held = holders[v]
                vbit = 1 << (v - 1)
                split = {}
                for m, bits in branches.items():
                    inside = bits & held
                    if inside:
                        split[m | vbit] = inside
                    if inside != bits:
                        split[m] = bits ^ inside
                branches = split
            self.meets.append(branches)
        part_bits = tuple((1 << p, mask_of(part)) for p, part in enumerate(parts))
        self.project = cache(lambda mask: sum(bit for bit, pm in part_bits if mask & pm))
        self._vertices = cache(vertices_of)

    def pattern(self, i: int) -> frozenset[int]:
        return frozenset(map(self.project, self.meets[i]))

    def centers(self, i: int) -> list[tuple[Edge, int]]:
        """Edge i's intersections as (vertex tuple, mask), in vertex-tuple order."""
        return sorted((self._vertices(x), x) for x in self.meets[i])

    def petals(self, i: int, center: int, s: int) -> tuple[Edge, ...] | None:
        """The lex-first s-petal sunflower through edge i at its meet `center`.

        Its other petals meet edge i in exactly the center, so they are
        picked from `meets[i][center]`: the lowest edge for s = 2.
        """
        bits = self.meets[i][center]
        if s == 2:
            j = (bits & -bits).bit_length() - 1
            return tuple(sorted((self.edges[i], self.edges[j])))
        # `vertices_of` lists the set bits 1-based: j for edge j - 1
        cands = [(self.edges[j - 1], self.masks[j - 1] & ~center) for j in vertices_of(bits)]
        pick = next(disjoint_picks(cands, 0, s - 1, 0, None), None)
        if pick is None:
            return None
        return tuple(sorted((self.edges[i],) + pick[0]))


def is_homogeneous(h: Hypergraph, s: int, parts) -> HomogeneousCheck:
    """Check the four homogeneity conditions; first failure wins."""
    check_int("petal count s", s, 2)
    if len(h) == 0:
        raise ParameterError("subgraph must be nonempty")
    norm = validate_vertex_partition(h.n, parts)
    if len(norm) != h.k:
        raise ParameterError(f"need exactly {h.k} parts, got {len(norm)}")
    idx = _MaskIndex(h.edges, h.edge_masks, norm)
    for e, m in zip(h.edges, h.edge_masks):
        if idx.project(m) != (1 << h.k) - 1:
            return HomogeneousCheck(False, failure="not-k-partite",
                                    detail=f"edge {e} does not meet every part exactly once")
    common = idx.pattern(0)
    for i in range(1, len(h)):
        if idx.pattern(i) != common:
            return HomogeneousCheck(False, failure="pattern-mismatch",
                                    detail=f"edge {h.edges[i]} projects to a different pattern "
                                           f"than edge {h.edges[0]}")
    pattern = IntersectionPattern.of(h.k, map(vertices_of, common))
    pair = pattern.open_pair()
    if pair is not None:
        a, b = pair
        return HomogeneousCheck(
            False, failure="pattern-not-closed",
            detail=f"{a} and {b} are in the pattern but their "
                   f"intersection {tuple(sorted(set(a) & set(b)))} is not")
    witnesses: list[SunflowerWitness] = []
    for i, e in enumerate(h.edges):
        for center, cm in idx.centers(i):
            petals = idx.petals(i, cm, s)
            if petals is None:
                return HomogeneousCheck(
                    False, failure="missing-sunflower",
                    detail=f"no {s}-petal sunflower with center {center} "
                           f"through edge {e}")
            witnesses.append((e, center, petals))
    cert = HomogeneousCertificate(h, norm, pattern, s, tuple(witnesses))
    return HomogeneousCheck(True, certificate=cert)


def homogeneous_size_bound(cert: HomogeneousCertificate) -> int:
    """Shadow-count cap on the subgraph size implied by the pattern's rank."""
    r = rank(cert.pattern)
    if r == 0:
        return 1
    return len(shadow(cert.subgraph, cert.subgraph.k - r))


def _co_members(h: Hypergraph) -> dict[int, list[Edge]]:
    """others[v]: each edge through vertex v as the tuple of its other vertices."""
    others: dict[int, list[Edge]] = {v: [] for v in range(1, h.n + 1)}
    for e in h.edges:
        for v in e:
            others[v].append(tuple(u for u in e if u != v))
    return others


def _climb_partition(h: Hypergraph, rng: random.Random,
                     others: dict[int, list[Edge]]) -> dict[int, int]:
    """Random part assignment improved by single-vertex moves, best gain first.

    An edge in `others[v]` (from `_co_members`) is rainbow exactly when its
    members take k-1 distinct parts and v takes the one part left.
    `counts[v][p]` is the number of v's edges that would be rainbow with v
    in part p; it is built once, with one pass over v's tuples. A move of w
    changes only the counts of w's co-members: through each edge of w, every
    other member u loses the edge's contribution under w's old part and
    gains it under the new one.
    """
    assign = {v: rng.randrange(h.k) for v in range(1, h.n + 1)}
    part_sum = h.k * (h.k - 1) // 2

    def rainbow_by_part(v: int) -> list[int]:
        counts = [0] * h.k
        for rest in others[v]:
            taken = {assign[u] for u in rest}
            if len(taken) == h.k - 1:
                counts[part_sum - sum(taken)] += 1
        return counts

    counts = {v: rainbow_by_part(v) for v in others}

    while True:
        best_gain = 0
        best_move: tuple[int, int] | None = None
        for v in range(1, h.n + 1):
            cur = assign[v]
            mine = counts[v]
            for p in range(h.k):
                if p == cur:
                    continue
                gain = mine[p] - mine[cur]
                if gain > best_gain:
                    best_gain = gain
                    best_move = (v, p)
        if best_move is None:
            return assign
        w, new = best_move
        old = assign[w]
        assign[w] = new
        for rest in others[w]:
            for u in rest:
                # the parts of the edge's members other than u and w; the
                # edge is rainbow for u only if they are distinct, and then
                # u takes the part that neither they nor w take
                base = {assign[x] for x in rest if x != u}
                if len(base) == h.k - 2:
                    missing = part_sum - sum(base)
                    if old not in base:
                        counts[u][missing - old] -= 1
                    if new not in base:
                        counts[u][missing - new] += 1


def _refine(k: int, edges: list[Edge], mask: dict[Edge, int], parts: tuple[Edge, ...],
            s: int) -> list[Edge]:
    """Cut rainbow `edges` down until they are homogeneous under `parts`.

    Alternately unify the projected pattern, keeping the biggest pattern
    class, and delete edges breaking closure or the sunflower condition.
    Each step builds one `_MaskIndex` of the current edges, at most
    k * min(2^k, |E|) bitset ANDs per edge; it gives the patterns and the
    sunflower witnesses. Classes are keyed by sets of part masks, and only
    the class left and tied classes are decoded to patterns. With s = 2
    every meet is a sunflower center, so only s > 2 scans for a center
    without petals. The result may be empty.
    """
    while edges:
        idx = _MaskIndex(edges, [mask[e] for e in edges], parts)
        groups: dict[frozenset[int], list[Edge]] = {}
        for i, e in enumerate(edges):
            groups.setdefault(idx.pattern(i), []).append(e)
        if len(groups) > 1:
            # keep the biggest pattern class; tie-break on the pattern itself
            size = max(len(g) for g in groups.values())
            first = min((key for key, g in groups.items() if len(g) == size),
                        key=lambda pat: IntersectionPattern.of(
                            k, map(vertices_of, pat)).sorted_sets())
            edges = groups[first]
            continue
        pattern = IntersectionPattern.of(k, map(vertices_of, next(iter(groups))))
        if not pattern.is_closed:
            edges = edges[:-1]
            continue
        if s > 2:
            bad = next((e for i, e in enumerate(edges)
                        if any(idx.petals(i, cm, s) is None for cm in idx.meets[i])),
                       None)
            if bad is not None:
                edges = [e for e in edges if e != bad]
                continue
        break
    return edges


def extract_homogeneous(h: Hypergraph, s: int, seed: int = 0,
                        restarts: int = 8) -> HomogeneousCertificate:
    """Find a large homogeneous subgraph; always returns a valid certificate.

    Each restart draws a random vertex partition, improves it by hill
    climbing on the rainbow edge count, and cuts the rainbow edges down with
    `_refine` until they are homogeneous. The largest subgraph over all
    restarts wins, the earlier restart on ties; a single edge with its
    tailor-made partition is the fallback, so the result is never empty.
    Deterministic for fixed seed and restarts. The climb's co-member table
    is built once for all restarts, and `is_homogeneous` checks the winner
    once, on an index of its own, and gives its certificate.
    """
    check_int("petal count s", s, 2)
    check_int("seed", seed, None)
    check_int("restarts", restarts, 0)
    if len(h) == 0:
        raise ParameterError("hypergraph must be nonempty")
    mask = dict(zip(h.edges, h.edge_masks))
    others = _co_members(h)
    best: tuple[list[Edge], tuple[Edge, ...]] | None = None
    for r in range(restarts):
        rng = random.Random(seed * 1_000_003 + r)
        assign = _climb_partition(h, rng, others)
        parts = tuple(tuple(v for v in range(1, h.n + 1) if assign[v] == i)
                      for i in range(h.k))
        edges = _refine(h.k, [e for e in h.edges if len({assign[v] for v in e}) == h.k],
                        mask, parts, s)
        if edges and (best is None or len(edges) > len(best[0])):
            best = (edges, parts)
    if best is None:
        # fallback: one edge, each of its vertices alone in a part, spare
        # vertices stacked into the first part
        e = h.edges[0]
        spare = tuple(v for v in range(1, h.n + 1) if v not in e)
        best = ([e], ((e[0],) + spare,) + tuple((v,) for v in e[1:]))
    edges, parts = best
    check = is_homogeneous(h.restrict(edges), s, parts)
    if not check.ok:
        raise AssertionError(f"extraction produced an invalid subgraph: {check.failure}")
    return check.certificate
