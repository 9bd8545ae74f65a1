"""Sunflowers and host-partitioned sunflower clusters.

A sunflower is a family of at least two sets whose pairwise intersections all
equal one common center. A *cluster* here is a host edge together with an
ordered partition of the host into blocks and, for each block, a group of
edges: the host plus each group must form a sunflower whose center is the
host minus that block. The cluster is *semi* when only the per-group
condition holds, and *disjoint* (full) when additionally the residues
edge-minus-host of all group edges are pairwise disjoint across the whole
cluster. Group sizes sum to the cluster's petal count.

`disjoint_picks` chooses members with pairwise disjoint residues, for a
sunflower's petals and for each group of a cluster. `disjoint_clusters` lists
every disjoint cluster; `find_cluster` takes the first, and the avd-system
conflict table of `extremal` all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Iterable, Sequence

from .errors import ParameterError, PreconditionError, check_int
from .hypergraph import Edge, Hypergraph, mask_of, vertex_tuple, vertices_of
from .search import NodeCounter, SearchOutcome, bounded


@dataclass(frozen=True)
class Sunflower:
    center: Edge
    petals: tuple[Edge, ...]


@dataclass(frozen=True)
class SunflowerCheck:
    ok: bool
    sunflower: Sunflower | None = None
    violating: tuple[Edge, Edge] | None = None
    reason: str | None = None


def check_sunflower(edges: Sequence[Iterable[int]]) -> SunflowerCheck:
    """Decide whether the family is a sunflower; name the first bad pair if not."""
    fam = [vertex_tuple(e) for e in edges]
    if len(fam) < 2:
        raise ParameterError("a sunflower needs at least two petals")
    if len(set(fam)) != len(fam):
        raise ParameterError("petals must be pairwise distinct sets")
    center = set(fam[0]) & set(fam[1])
    for a, b in combinations(fam, 2):
        if set(a) & set(b) != center:
            return SunflowerCheck(False, violating=(a, b),
                                  reason=f"{a} and {b} meet in {tuple(sorted(set(a) & set(b)))}, "
                                         f"not in the common center {tuple(sorted(center))}")
    return SunflowerCheck(True, Sunflower(vertex_tuple(center), tuple(sorted(fam))))


def is_sunflower(edges: Sequence[Iterable[int]]) -> bool:
    return check_sunflower(edges).ok


def disjoint_picks(cands: Sequence[tuple[Any, int]], start: int, need: int, used: int,
                   counter: NodeCounter | None):
    """Every choice of `need` candidates from position `start` on whose residues
    are pairwise disjoint and disjoint from `used`; `need` is at least 1.

    `cands` holds (item, residue mask) pairs in the caller's order. Choices
    come in lexicographic order of their positions, each as (items in scan
    order, `used` with their residues added). A candidate whose residue
    meets `used` is never taken, so an item already charged to `used` may
    stay in the list. The last candidate of a choice is yielded in place,
    in its parent's loop. `counter`, when given, ticks once per candidate
    taken.
    """
    for pos in range(start, len(cands) - need + 1):
        item, res = cands[pos]
        if res & used:
            continue
        if counter is not None:
            counter.tick()
        if need == 1:
            yield (item,), used | res
            continue
        for rest, after in disjoint_picks(cands, pos + 1, need - 1, used | res, counter):
            yield (item,) + rest, after


def find_sunflower(h: Hypergraph, center: Iterable[int], s: int,
                   require_edge: Iterable[int] | None = None) -> Sunflower | None:
    """Exact search for s edges containing `center` with pairwise-disjoint residues.

    Disjoint residues force every pairwise intersection to equal the center
    exactly. The candidates are the edges through the center in lexicographic
    order, and the witness is the first choice of `disjoint_picks`, so it is
    deterministic. With `require_edge`, that edge is forced into the
    sunflower.
    """
    check_int("sunflower size", s, 2)
    c = vertex_tuple(center)
    cm = mask_of(c)
    cands = [(e, m & ~cm) for e, m in zip(h.edges, h.edge_masks) if m & cm == cm]
    forced: list[Edge] = []
    used = 0
    if require_edge is not None:
        req = vertex_tuple(require_edge)
        if req not in h:
            raise ParameterError(f"required edge {req} is not in the hypergraph")
        if mask_of(req) & cm != cm:
            raise ParameterError(f"required edge {req} does not contain the center {c}")
        cands = [(e, r) for e, r in cands if e != req]
        forced.append(req)
        used = mask_of(req) & ~cm
    pick = next(disjoint_picks(cands, 0, s - len(forced), used, None), None)
    if pick is None:
        return None
    return Sunflower(c, tuple(sorted(forced + list(pick[0]))))


@dataclass(frozen=True)
class SunflowerCluster:
    """Host edge, ordered partition blocks of the host, and per-block edge groups."""

    host: Edge
    blocks: tuple[Edge, ...]
    groups: tuple[tuple[Edge, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "host", vertex_tuple(self.host))
        object.__setattr__(self, "blocks", tuple(vertex_tuple(b) for b in self.blocks))
        object.__setattr__(self, "groups",
                           tuple(tuple(vertex_tuple(e) for e in g) for g in self.groups))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @property
    def petal_count(self) -> int:
        return sum(self.group_sizes)

    @property
    def all_edges(self) -> tuple[Edge, ...]:
        out = [self.host]
        for g in self.groups:
            out.extend(g)
        return tuple(out)

    def to_json(self) -> dict:
        return {"host": self.host, "blocks": self.blocks, "groups": self.groups}

    @classmethod
    def from_json(cls, data: dict) -> "SunflowerCluster":
        try:
            return cls(tuple(data["host"]),
                       tuple(tuple(b) for b in data["blocks"]),
                       tuple(tuple(tuple(e) for e in g) for g in data["groups"]))
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed cluster witness: {exc}")


@dataclass(frozen=True)
class ClusterCheck:
    ok: bool
    reason: str | None = None


def _validate_cluster_shape(c: SunflowerCluster) -> int:
    """Structural validation shared by the semi and full checks; returns k."""
    k = len(c.host)
    if k < 2:
        raise ParameterError("host edge must have at least two vertices")
    if not c.blocks:
        raise ParameterError("cluster needs at least one partition block")
    seen: list[int] = []
    for b in c.blocks:
        if not b:
            raise ParameterError("partition blocks must be nonempty")
        seen.extend(b)
    if len(seen) != len(set(seen)) or set(seen) != set(c.host):
        raise ParameterError("blocks must partition the host edge exactly")
    if len(c.groups) != len(c.blocks):
        raise ParameterError(f"{len(c.blocks)} blocks but {len(c.groups)} groups")
    for i, g in enumerate(c.groups):
        if not g:
            raise ParameterError(f"group {i + 1} is empty; every group needs at least one edge")
        for e in g:
            if len(e) != k:
                raise ParameterError(f"group edge {e} has size {len(e)}, host has size {k}")
    return k


def check_semi_cluster(c: SunflowerCluster) -> ClusterCheck:
    """Each group together with the host must be a sunflower centered at host minus block."""
    _validate_cluster_shape(c)
    host_mask = mask_of(c.host)
    edges_seen = {c.host}
    for i, (block, group) in enumerate(zip(c.blocks, c.groups), start=1):
        center_mask = host_mask & ~mask_of(block)
        center = vertices_of(center_mask)
        for e in group:
            if e in edges_seen:
                return ClusterCheck(False, f"edge {e} appears twice in the cluster")
            edges_seen.add(e)
            if mask_of(e) & host_mask != center_mask:
                return ClusterCheck(False,
                                    f"group {i}: edge {e} meets the host in "
                                    f"{vertices_of(mask_of(e) & host_mask)}, expected {center}")
        for a, b in combinations(group, 2):
            if mask_of(a) & mask_of(b) != center_mask:
                return ClusterCheck(False,
                                    f"group {i}: edges {a} and {b} meet outside the center {center}")
    return ClusterCheck(True)


def check_cluster(c: SunflowerCluster, d: int | None = None) -> ClusterCheck:
    """Full cluster: semi conditions plus globally disjoint residues; petal count d."""
    semi = check_semi_cluster(c)
    if not semi.ok:
        return semi
    host_mask = mask_of(c.host)
    residues: list[tuple[Edge, int]] = []
    for g in c.groups:
        for e in g:
            residues.append((e, mask_of(e) & ~host_mask))
    for (ea, ra), (eb, rb) in combinations(residues, 2):
        if ra & rb:
            return ClusterCheck(False,
                                f"residues of {ea} and {eb} share "
                                f"{vertices_of(ra & rb)} outside the host")
    if d is not None and c.petal_count != d:
        return ClusterCheck(False, f"cluster has {c.petal_count} petal edges, expected {d}")
    return ClusterCheck(True)


def _as_tuple(name: str, values: Sequence[int]) -> tuple:
    """`values` as a tuple; ParameterError naming `name` when it is not a
    sequence at all, such as a lone int."""
    try:
        return tuple(values)
    except TypeError:
        raise ParameterError(f"{name} must be a sequence of integers, got {values!r}") from None


def complete_cluster(c: SunflowerCluster, group_sizes: Sequence[int]) -> SunflowerCluster:
    """Shrink a semi cluster's groups to the requested sizes with disjoint residues.

    `group_sizes` holds one int of at least 1 per block; other values are
    refused, never rounded. Requires, for each block i (1-based, with
    a = block sizes, b = requested sizes, c = available group sizes):
    c_i >= b_i + sum over j < i of a_j*b_j,
    unless the groups already have the requested sizes and pairwise
    disjoint residues, which are then kept whole. Under that bound a greedy
    sweep in lexicographic order always succeeds: every previously chosen residue of size a_j can block at most a_j
    candidates of a later group, because residues within one group are
    already pairwise disjoint. The lex-first choice of `_group_picks` is
    therefore that sweep's, reached without backtracking.
    """
    semi = check_semi_cluster(c)
    if not semi.ok:
        raise ParameterError(f"input is not a semi cluster: {semi.reason}")
    p = len(c.blocks)
    b = _as_tuple("group sizes", group_sizes)
    if len(b) != p:
        raise ParameterError(f"group sizes must be {p} positive integers, got {b}")
    for x in b:
        check_int("group size", x, 1)
    a = c.block_sizes
    have = c.group_sizes
    # groups already of the requested sizes with disjoint residues complete
    # themselves, whatever the bound says
    if have != b or not check_cluster(c).ok:
        blocked = 0
        for i in range(p):
            if have[i] < b[i] + blocked:
                raise PreconditionError(
                    f"group {i + 1} has {have[i]} edges; completion needs at least "
                    f"{b[i] + blocked} (requested {b[i]} plus {blocked} possibly blocked)")
            blocked += a[i] * b[i]
    host_mask = mask_of(c.host)
    cands = [[(e, mask_of(e) & ~host_mask) for e in sorted(g)] for g in c.groups]
    groups = next(_group_picks(cands, b, 0, None), None)
    if groups is None:
        raise AssertionError("completion fell short despite the precondition")
    out = SunflowerCluster(c.host, c.blocks, groups)
    verdict = check_cluster(out, sum(b))
    if not verdict.ok:
        raise AssertionError(f"completion produced an invalid cluster: {verdict.reason}")
    return out


def _host_partitions(host: Edge, sizes: Sequence[int]):
    """Ordered partitions of the host with the given block sizes.

    Among blocks of equal size, minima increase, so each set partition is
    visited once per distinct size arrangement.
    """
    acc: list[Edge] = []

    def rec(remaining: tuple[int, ...], i: int):
        if i == len(sizes):
            yield tuple(acc)
            return
        size = sizes[i]
        floor = max((b[0] for b in acc if len(b) == size), default=0)
        for combo in combinations(remaining, size):
            if combo[0] <= floor:
                continue
            rest = tuple(v for v in remaining if v not in combo)
            acc.append(combo)
            yield from rec(rest, i + 1)
            acc.pop()

    yield from rec(host, 0)


def _compositions(total: int, parts: int):
    """Compositions of `total` into `parts` positive integers, lex order: the
    gaps between parts - 1 cut points taken from 1..total-1."""
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def _group_picks(cands: Sequence[Sequence[tuple[Any, int]]], sizes: Sequence[int],
                 used: int, counter: NodeCounter | None):
    """Every choice of sizes[i] members from each cands[i] with all residues
    disjoint, group by group in lexicographic order."""
    if not cands:
        yield ()
        return
    for group, after in disjoint_picks(cands[0], 0, sizes[0], used, counter):
        for rest in _group_picks(cands[1:], sizes[1:], after, counter):
            yield (group,) + rest


def disjoint_clusters(masks: Sequence[int], part_sizes: Sequence[int], d: int,
                      counter: NodeCounter):
    """Every disjoint cluster over a mask list, as (host index, blocks, groups of indices).

    Indices refer to positions in `masks`, which must be in the caller's
    deterministic order. Hosts run in index order, then the host's ordered
    partitions, then the compositions of d into group sizes, then the
    petals group by group; a composition that asks a group for more members
    than it has candidates is skipped. The same member set may come more
    than once. Each host indexes the other members, in index order, by
    their meet with it once, and a block's candidates are the members that
    meet the host in the rest of the host. `counter` ticks once per host,
    once per partition walked and once per petal picked.
    """
    for hi, host_mask in enumerate(masks):
        counter.tick()
        by_meet: dict[int, list[tuple[int, int]]] = {}
        for j, m in enumerate(masks):
            if j != hi:
                by_meet.setdefault(m & host_mask, []).append((j, m & ~host_mask))
        for blocks in _host_partitions(vertices_of(host_mask), part_sizes):
            counter.tick()
            cands = [by_meet.get(host_mask & ~mask_of(b), []) for b in blocks]
            for sizes in _compositions(d, len(blocks)):
                if any(len(c) < b for c, b in zip(cands, sizes)):
                    continue
                for groups in _group_picks(cands, sizes, 0, counter):
                    yield hi, blocks, groups


def cluster_blocks(part_sizes: Sequence[int], d: int) -> tuple[int, ...]:
    """The block sizes of a cluster with d petal edges, as a tuple: at least
    two blocks, each passing `check_int` as a "block size" of at least 1,
    and d passing it as a "petal count d" of at least the number of
    blocks."""
    a = _as_tuple("block sizes", part_sizes)
    if len(a) < 2:
        raise ParameterError(f"need at least two blocks, got {len(a)}")
    for x in a:
        check_int("block size", x, 1)
    check_int("petal count d", d, len(a))
    return a


def find_cluster(h: Hypergraph, part_sizes: Sequence[int], d: int,
                 budget: int | None = None) -> SearchOutcome:
    """Exact budgeted search for a disjoint cluster with the given block sizes.

    part_sizes must be positive, have length p >= 2, and sum to k; d >= p.
    Hosts, partitions, group-size compositions, and group members are all
    scanned in deterministic lexicographic order, so the witness, the first
    cluster `disjoint_clusters` lists, is the same on every run.
    """
    a = cluster_blocks(part_sizes, d)
    if sum(a) != h.k:
        raise ParameterError(f"block sizes {a} must sum to the uniformity {h.k}")

    def search(counter: NodeCounter) -> SunflowerCluster | None:
        hit = next(disjoint_clusters(h.edge_masks, a, d, counter), None)
        if hit is None:
            return None
        hi, blocks, groups = hit
        witness = SunflowerCluster(h.edges[hi], blocks,
                                   tuple(tuple(h.edges[j] for j in g) for g in groups))
        verdict = check_cluster(witness, d)
        if not verdict.ok:
            raise AssertionError(f"search produced an invalid cluster: {verdict.reason}")
        return witness

    return bounded(budget, search)
