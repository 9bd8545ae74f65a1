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

import heapq
import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .errors import ParameterError, check_int
from .hypergraph import Edge, Hypergraph, holders_of, mask_of, shadow, vertices_of
from .patterns import IntersectionPattern, rank, validate_vertex_partition

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

    `meets[i]` maps each mask of edge i's intersections with the other live
    edges, the set `intersection_structure` lists, to a bitset that holds,
    read through `live`, the edges that meet edge i in exactly that mask
    (bit j for edge j). It comes from splitting the other edges' bitset by
    each vertex v of edge i in turn, into the part inside v's holders
    (`holders_of` the edge tuples) and the part outside; empty parts are
    dropped, and each part left is one entry. That is at most
    k * min(2^k, |E|) big-int ANDs per edge, not |E|. `project(mask)` is the
    part mask of a vertex mask, bit p-1 for each part p it meets, and
    `pattern(i)` is the set of the part masks of edge i's meets
    (`vertices_of` decodes a part mask). A part mask and a meet's vertex
    tuple are computed once per distinct mask. Every edge is live until
    `drop` removes it.
    """

    __slots__ = ("edges", "masks", "holders", "meets", "live", "reach", "project",
                 "_vertices")

    def __init__(self, edges: Sequence[Edge], masks: Sequence[int],
                 parts: Sequence[Edge]):
        self.edges = edges
        self.masks = masks
        self.holders = holders = holders_of(edges)
        self.live = everything = (1 << len(edges)) - 1
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
        # the most other edges any edge meets: an edge's empty meet can only
        # empty once at most reach + 1 edges are live
        far = min((m.get(0, 0).bit_count() for m in self.meets), default=0)
        self.reach = len(edges) - 1 - far
        part_bits = tuple((1 << p, mask_of(part)) for p, part in enumerate(parts))
        self.project = cache(lambda mask: sum(bit for bit, pm in part_bits if mask & pm))
        self._vertices = cache(vertices_of)

    def pattern(self, i: int) -> frozenset[int]:
        return frozenset(map(self.project, self.meets[i]))

    def centers(self, i: int) -> list[tuple[Edge, int]]:
        """Edge i's intersections as (vertex tuple, mask), in vertex-tuple order."""
        return sorted((self._vertices(x), x) for x in self.meets[i])

    def witness(self, i: int, center: int, s: int) -> int | None:
        """The bitset of the other s - 1 petals of the lex-first s-petal
        sunflower through edge i at its meet `center`, or None.

        Those petals meet edge i in exactly the center, so they are picked
        from `meets[i][center]`: the lowest edge for s = 2.
        """
        bits = self.meets[i][center] & self.live
        return bits & -bits if s == 2 else self._picks(bits, s - 1, center)

    def _picks(self, bits: int, need: int, center: int) -> int | None:
        """The first `need` edges of `bits`, in lexicographic order of their
        positions, whose residues outside `center` are pairwise disjoint.

        The order is that of `disjoint_picks`. Taking an edge strikes every
        later candidate that holds a vertex of its residue.
        """
        while bits:
            low = bits & -bits
            bits ^= low
            if need == 1:
                return low
            blocked = 0
            for v in self.edges[low.bit_length() - 1]:
                if not center >> (v - 1) & 1:
                    blocked |= self.holders[v]
            rest = self._picks(bits & ~blocked, need - 1, center)
            if rest is not None:
                return low | rest
        return None

    def petals(self, i: int, center: int, s: int) -> tuple[Edge, ...] | None:
        """The petals of `witness(i, center, s)`, edge i among them, in order."""
        w = self.witness(i, center, s)
        if w is None:
            return None
        if s == 2:
            return tuple(sorted((self.edges[i], self.edges[w.bit_length() - 1])))
        return tuple(sorted([self.edges[i]] + [self.edges[j - 1] for j in vertices_of(w)]))

    def drop(self, gone: int) -> list[int]:
        """Remove the live edges of bitset `gone`; return the live edges
        that lost a meet.

        A meet's bitset changes only when it empties, as it is read through
        `live`. With one edge j gone, that can happen to the meet e_i & e_j
        of an edge i through one of e_j's vertices, and to the empty meet of
        an edge disjoint from e_j, once at most `reach` + 1 edges are left.
        With more edges gone (a class drop), every meet of a live edge is
        masked to the live edges.
        """
        live = self.live = self.live & ~gone
        meets, masks = self.meets, self.masks
        lost = []
        if gone & (gone - 1):
            for i in vertices_of(live):
                mi = meets[i - 1]
                kept = {m: bits & live for m, bits in mi.items() if bits & live}
                if len(kept) < len(mi):
                    lost.append(i - 1)
                meets[i - 1] = kept
            return lost
        j = gone.bit_length() - 1
        near = 0
        for v in self.edges[j]:
            near |= self.holders[v]
        for i in vertices_of(near & live):
            mi = meets[i - 1]
            m = masks[i - 1] & masks[j]
            if not mi[m] & live:
                del mi[m]
                lost.append(i - 1)
        if live.bit_count() <= self.reach + 1:
            for i in vertices_of(live & ~near):
                mi = meets[i - 1]
                if 0 in mi and not mi[0] & live:
                    del mi[0]
                    lost.append(i - 1)
        return lost


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


def _edges_through(h: Hypergraph) -> list[list[int]]:
    """through[v]: the positions in `h.edges` of the edges through vertex v."""
    through: list[list[int]] = [[] for _ in range(h.n + 1)]
    for pos, e in enumerate(h.edges):
        for v in e:
            through[v].append(pos)
    return through


def _climb_partition(h: Hypergraph, rng: random.Random,
                     through: list[list[int]]) -> dict[int, int]:
    """Random part assignment improved by single-vertex moves, best gain first.

    `sums[pos]` adds up `1 << part` over the members of edge pos. Leaving out
    member v, the other members take k-1 distinct parts exactly when the
    rest of the sum has k-1 bits set, as a repeated part carries; the edge
    is then rainbow with v in the one part left, `free[rest]`. `counts[v][p]`
    is the number of the edges through v (`through[v]`, from
    `_edges_through`) that would be rainbow with v in part p. A move of w
    changes only the counts of w's co-members: through each edge of w,
    every other member u loses the edge's contribution under the old sum
    and gains it under the new one. The scan takes the first vertex, and
    its first part, of strictly best gain.
    """
    k = h.k
    assign = {v: rng.randrange(k) for v in range(1, h.n + 1)}
    free = {(1 << k) - 1 - (1 << p): p for p in range(k)}
    sums = [sum(1 << assign[u] for u in e) for e in h.edges]
    counts = {}
    for v in assign:
        mine = counts[v] = [0] * k
        bit = 1 << assign[v]
        for pos in through[v]:
            p = free.get(sums[pos] - bit)
            if p is not None:
                mine[p] += 1

    while True:
        best_gain = 0
        best_move: tuple[int, int] | None = None
        for v, mine in counts.items():
            top = max(mine)
            if top - mine[assign[v]] > best_gain:
                best_gain = top - mine[assign[v]]
                best_move = (v, mine.index(top))
        if best_move is None:
            return assign
        w, new = best_move
        delta = (1 << new) - (1 << assign[w])
        assign[w] = new
        for pos in through[w]:
            before = sums[pos]
            after = sums[pos] = before + delta
            for u in h.edges[pos]:
                if u != w:
                    bit = 1 << assign[u]
                    p = free.get(before - bit)
                    if p is not None:
                        counts[u][p] -= 1
                    p = free.get(after - bit)
                    if p is not None:
                        counts[u][p] += 1


def _refine(k: int, edges: list[Edge], mask: dict[Edge, int], parts: tuple[Edge, ...],
            s: int) -> list[Edge]:
    """Cut rainbow `edges` down until they are homogeneous under `parts`.

    Alternately unify the projected pattern, keeping the biggest pattern
    class, and delete edges breaking closure (the last edge) or the
    sunflower condition (the first bad edge). One `_MaskIndex` of `edges`
    is built and updated in place by `_MaskIndex.drop`, and an edge's
    pattern is recomputed only when it loses a meet. Classes are counted by
    sets of part masks, and only the class left and tied classes are
    decoded to patterns. With s = 2 every meet is a sunflower center. For
    s > 2, `found[i]` keeps the petal bitset of each meet's lex-first
    witness, or None for none. A lex-first pick stays lex-first when a
    candidate it does not use leaves, and none stays none, so a witness is
    searched again only when one of its petals leaves; `users[j]` lists the
    edges whose witnesses used edge j. `suspects` is a heap that holds every
    live edge not yet known to be good (and may hold others), so the lowest
    bad edge is found without rescanning the good ones. The result may be
    empty.
    """
    if not edges:
        return edges
    idx = _MaskIndex(edges, [mask[e] for e in edges], parts)
    patterns = [idx.pattern(i) for i in range(len(edges))]
    classes = Counter(patterns)
    found: list[dict[int, int | None]] = [{} for _ in edges]
    users: list[list[int]] = [[] for _ in edges]
    suspects = list(range(len(edges)))

    def drop(gone: int) -> None:
        for j in vertices_of(gone):
            classes[patterns[j - 1]] -= 1
            for i in users[j - 1]:
                heapq.heappush(suspects, i)
        for i in idx.drop(gone):
            classes[patterns[i]] -= 1
            patterns[i] = idx.pattern(i)
            classes[patterns[i]] += 1
        for key in [key for key, c in classes.items() if not c]:
            del classes[key]

    def lowest_bad() -> int | None:
        while suspects:
            i = suspects[0]
            if idx.live >> i & 1:
                mine = found[i]
                for m in idx.meets[i]:
                    # -1: not searched yet, and unequal to its AND with live
                    w = mine.get(m, -1)
                    if w is not None and w & idx.live != w:
                        w = mine[m] = idx.witness(i, m, s)
                        for j in vertices_of(w or 0):
                            users[j - 1].append(i)
                    if w is None:
                        return i
            heapq.heappop(suspects)
        return None

    while idx.live:
        if len(classes) > 1:
            # keep the biggest pattern class; tie-break on the pattern itself
            size = max(classes.values())
            first = min((key for key, c in classes.items() if c == size),
                        key=lambda pat: IntersectionPattern.of(
                            k, map(vertices_of, pat)).sorted_sets())
            drop(sum(1 << (j - 1) for j in vertices_of(idx.live) if patterns[j - 1] != first))
            continue
        if not IntersectionPattern.of(k, map(vertices_of, next(iter(classes)))).is_closed:
            drop(1 << (idx.live.bit_length() - 1))
            continue
        bad = lowest_bad() if s > 2 else None
        if bad is None:
            break
        drop(1 << bad)
    return [edges[j - 1] for j in vertices_of(idx.live)]


def extract_homogeneous(h: Hypergraph, s: int, seed: int = 0,
                        restarts: int = 8) -> HomogeneousCertificate:
    """Find a large homogeneous subgraph; always returns a valid certificate.

    Each restart draws a random vertex partition, improves it by hill
    climbing on the rainbow edge count, and cuts the rainbow edges down with
    `_refine` until they are homogeneous. The largest subgraph over all
    restarts wins, the earlier restart on ties; a single edge with its
    tailor-made partition is the fallback, so the result is never empty.
    Deterministic for fixed seed and restarts. The climb's lists of the
    edges through each vertex are built once for all restarts, and
    `is_homogeneous` checks the winner once, on an index of its own, and
    gives its certificate.
    """
    check_int("petal count s", s, 2)
    check_int("seed", seed, None)
    check_int("restarts", restarts, 0)
    if len(h) == 0:
        raise ParameterError("hypergraph must be nonempty")
    mask = dict(zip(h.edges, h.edge_masks))
    through = _edges_through(h)
    best: tuple[list[Edge], tuple[Edge, ...]] | None = None
    for r in range(restarts):
        rng = random.Random(seed * 1_000_003 + r)
        assign = _climb_partition(h, rng, through)
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
