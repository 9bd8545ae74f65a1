"""Exact maximum family sizes under a forbidden configuration, plus stability.

`max_avoiding` runs a complete branch and bound over all k-subsets of the
vertex set, forbidding any subfamily that forms the given configuration.
The first edge 1..k is forced, which loses no size by relabeling; the star
through vertex 1, which holds none of the configurations, seeds the
incumbent. The search branches by orbits: each node takes the lowest live
candidate or drops every candidate that a relabelling fixing the chosen
members maps it to. At least one maximum family through the forced edge is
collected from every isomorphism class.

Every kind runs one search. It carries a live set of candidates that
complete no forbidden subfamily with the members chosen so far, drops the
ones each new member kills, and bounds each branch by |chosen| + |live|.
Configurations of exactly d+1 members (avd-systems, and nontrivial-intersecting
with t = d+1, the d-simplices) read the kills from a conflict table listed
once before the search, on the search's budget, and filed under each
conflict's two highest members as it is listed; larger ones find
them with one bitmask walk per new member, over the chosen subfamilies
through it. Both read which candidates meet a vertex set from one
`hypergraph.Meeting` index over the candidates, the one the search kernel
of `intersecting` uses, and the walk narrows its candidates as the kernel
does, from the (d-2)-fold meets it carries down each path.

`stability_scan` measures how close a near-maximum family is to a star:
the best vertex, its degree, and how many members miss it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isfinite

from .errors import BudgetExceeded, ParameterError, check_int
from .hypergraph import (NO_MEETS, Edge, Hypergraph, Meeting, Meets, check_order,
                         join_meets, mask_of)
from .search import NodeCounter
from .sunflowers import cluster_blocks, disjoint_clusters

# the fields of ForbiddenConfig that each kind takes, all of them and no other
CONFIG_FIELDS = {"nontrivial-intersecting": ("t", "d"), "d-simplex": ("d",),
                 "avd-system": ("part_sizes", "d")}
CONFIG_KINDS = tuple(CONFIG_FIELDS)


@dataclass(frozen=True)
class ForbiddenConfig:
    """A subfamily shape to exclude.

    nontrivial-intersecting: t members, d-wise intersecting, no common vertex
    (d = 1 only with t = 2: two disjoint members).
    d-simplex: another name for its t = d+1 case, which it becomes.
    avd-system: a host-partitioned sunflower cluster with the given block
    sizes and d petal edges in total.
    t and d must be ints of at least 1, and the block sizes ints; other
    values are refused, never rounded.
    """

    kind: str
    t: int | None = None
    d: int | None = None
    part_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in CONFIG_FIELDS:
            raise ParameterError(f"unknown configuration kind {self.kind!r}")
        for name, value in (("t", self.t), ("d", self.d)):
            if value is not None:
                check_int(name, value, 1)
        fields = CONFIG_FIELDS[self.kind]
        if {f for f in ("t", "d", "part_sizes") if getattr(self, f) is not None} != set(fields):
            raise ParameterError(f"{self.kind} takes exactly {' and '.join(fields)}")
        if self.kind == "d-simplex":
            object.__setattr__(self, "kind", "nontrivial-intersecting")
            object.__setattr__(self, "t", self.d + 1)
        if self.kind == "nontrivial-intersecting":
            if self.d == 1 and self.t != 2:
                raise ParameterError(f"d must be at least 2, or 1 with t=2, got d={self.d}")
            if self.t < self.d + 1:
                raise ParameterError(f"t must be at least d+1, got t={self.t}, d={self.d}")
        else:
            object.__setattr__(self, "part_sizes", cluster_blocks(self.part_sizes, self.d))

    def describe(self) -> str:
        if self.kind == "nontrivial-intersecting":
            return (f"{self.t} members, {self.d}-wise intersecting, "
                    f"no common vertex")
        return (f"cluster with block sizes {','.join(map(str, self.part_sizes))} "
                f"and {self.d} petal edges")


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    k: int
    config: ForbiddenConfig
    max_size: int
    families: tuple[tuple[Edge, ...], ...]
    nodes: int
    exact: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "config": {k: v for k, v in vars(self.config).items() if v is not None},
            "max_size": self.max_size,
            "exact": self.exact,
            "families": self.families,
            "nodes": self.nodes,
        }


def _simplex_kills(masks: list[int], d: int, meeting: Meeting, counter: NodeCounter,
                   kills: list[dict[int, int]]) -> None:
    """File every d-simplex among the members in `kills`, laid out as in
    `conflict_kills`.

    Members are added in index order while their meet stays nonempty. The
    (d+1)-th is read from the bitsets: the later members that miss the meet
    and meet every meet that leaves one member out. Each set of d members
    is reached once, so its bitset of last members is one entry. The d-th
    member is taken in its parent's loop, which reads that entry in place
    (with d = 1, at the root). `counter` ticks once per partial simplex and
    once per simplex listed.
    """

    def rec(start: int, bits: int, common: int, without: list[int]):
        # without[j]: meet of the members picked so far, all but the j-th
        counter.tick()
        leaf = len(without) == d - 1
        meets = meeting[common]
        for i in range(start, len(masks)):
            m = masks[i]
            if not common & m:
                continue
            if not leaf:
                rec(i + 1, bits | 1 << i, common & m, [w & m for w in without] + [common])
                continue
            counter.tick()
            last = meets & ~meeting[common & m] & -(2 << i)
            for w in without:
                last &= meeting[w & m]
            if last:
                counter.add(last.bit_count())
                kills[i][bits] = last

    # the meet of no members: every vertex
    rec(0, 0, (1 << max(masks).bit_length()) - 1, [])


def conflict_kills(masks: list[int], config: ForbiddenConfig, meeting: Meeting,
                   counter: NodeCounter) -> list[dict[int, int]] | None:
    """The conflict table, every forbidden subfamily of the members, filed
    for the search as it is listed.

    kills[e][rest] is the bitset of the members c such that rest, e and c
    form a forbidden subfamily with c its highest member and e the next;
    rest is a bitmask over `masks` positions below e. None when the
    configuration has more than d+1 members (nontrivial-intersecting with
    t > d+1), which the table does not cover. Listing it ticks `counter`.
    """
    if config.kind == "nontrivial-intersecting" and config.t > config.d + 1:
        return None
    kills: list[dict[int, int]] = [{} for _ in masks]
    if config.kind == "nontrivial-intersecting":
        _simplex_kills(masks, config.d, meeting, counter, kills)
        return kills
    for hi, _, groups in disjoint_clusters(masks, config.part_sizes, config.d, counter):
        s = sum(1 << j for g in groups for j in g) | 1 << hi
        c = s.bit_length() - 1
        e = (s ^ 1 << c).bit_length() - 1
        rest = s ^ 1 << c ^ 1 << e
        # a cluster listed twice is OR-ed in twice, which changes nothing
        kills[e][rest] = kills[e].get(rest, 0) | 1 << c
    return kills


def _nontrivial_kills(masks: list[int], chosen: int, newest: int, live: int, t: int,
                      d: int, meeting: Meeting, counter: NodeCounter) -> int:
    """The live candidates x that complete a forbidden t-family through x and `newest`.

    Only for t > d+1, the configurations `conflict_kills` leaves out, so S
    always takes at least two picks after `newest`. `chosen` is a bitmask
    over candidate positions that holds `newest`. The walk builds each
    d-wise intersecting (t-1)-subfamily S of the chosen members through
    `newest`, picking the others in index order. It keeps
    `fits`, the candidates meeting the meet of every min(|S|, d-1) members
    of S, and carries the meets of every min(|S|, d-2) members of S
    (`hypergraph.join_meets`), so that each pick narrows `fits` with one
    `meeting` lookup per carried meet. Each pick comes from `fits`, and a
    full S kills every target in it that misses the meet of S. The targets
    are the live candidates not yet dead that S can still kill: they lie
    in `fits` and hold no common vertex of S that every member left to
    pick also holds (`Meeting.kept`). A pick that leaves no
    target is skipped, and a branch ends when no target is left or too few
    members are left to pick. A pick that completes S reads its kills in
    place, in its parent's loop. One node is one tick of `counter`, one
    member added to S.
    """
    dead = 0
    kept = meeting.kept
    # with d = 2 narrowing is one AND, and the carried meets never change
    wide = d > 2

    def grow(need: int, meets: Meets, common: int, fits: int, pool: int, targets: int):
        nonlocal dead
        counter.tick()
        pool &= fits
        # a common vertex that every member left to pick holds stays common
        targets &= ~meeting[kept(common, pool)]
        top = meets[-1]
        while pool.bit_count() >= need and targets & ~dead:
            low = pool & -pool
            pool ^= low
            s = low.bit_length() - 1
            m = masks[s]
            more = fits & meeting[m]
            if wide:
                for y in top:
                    more &= meeting[y & m]
            aim = targets & more & ~dead
            if not aim:
                continue
            if need == 1:
                counter.tick()
                dead |= aim & ~meeting[common & m]
            else:
                grow(need - 1, join_meets(meets, m, d) if wide else meets, common & m,
                     more, pool, aim)

    m = masks[newest]
    fits = meeting[m]
    grow(t - 2, join_meets(NO_MEETS, m, d), m, fits, chosen & ~(1 << newest), live & fits)
    return dead


class _MeetSizes(dict):
    """by_meet[cell][j]: the candidates meeting the vertex set `cell` in j
    vertices, for j = 0..k, built on first use."""

    def __init__(self, masks: list[int], k: int):
        super().__init__()
        self.masks = masks
        self.k = k

    def __missing__(self, cell: int) -> list[int]:
        out = [0] * (self.k + 1)
        for i, m in enumerate(self.masks):
            out[(m & cell).bit_count()] |= 1 << i
        self[cell] = out
        return out


def max_avoiding(n: int, k: int, config: ForbiddenConfig,
                 budget: int | None = None) -> ExtremalResult:
    """Largest families of k-subsets of 1..n with no forbidden subfamily.

    Exact and deterministic. `families` holds at least one labelled maximum
    family through the first edge 1..k from every isomorphism class of
    maximum families, the star through vertex 1 among them when it is
    maximum; with an exhausted budget `exact` is False and max_size is only
    a lower bound.

    The search is orbital branching over a live set: the candidates not yet
    decided that complete no forbidden subfamily with the members chosen so
    far. The cells of a node split 1..n into the vertices that lie in
    exactly the same chosen members; the group G permuting each cell freely
    fixes every chosen member, so it maps kills to kills, and since every
    candidate dropped so far went with a whole orbit of a larger group, the
    live set is G-invariant. The orbit of a live x is every live y with
    |y & C| = |x & C| for each cell C. Each node takes the lowest live x,
    dropping every candidate the new member kills and refining the cells by
    x, or drops x's whole orbit under the same cells. A family that meets
    the orbit maps under G to one that holds x, so no size is lost, and
    since only branches strictly below the incumbent are cut, every
    isomorphism class of maximum families is reached. A live candidate can
    always be added, so |chosen| + |live| bounds the branch; the parent ticks
    each branch and tests that bound before it spends a call, a cell
    refinement or an orbit on it. Both branches remove the lowest live x, so
    every live candidate lies above every chosen member: members still
    arrive in index order.

    With exactly d+1 members (avd-system, and nontrivial-intersecting with
    t = d+1, the d-simplex) the kills are read from the conflict table of
    `conflict_kills`, listed up front and filed as it is listed under each
    conflict's two highest members: the highest is the only one still live
    when the second highest arrives. One node is one branch or one tick of
    `conflict_kills`, and the star is the incumbent even when the budget
    runs out while the table is listed. For t > d+1, once |chosen| + 1
    reaches t, a live x dies when chosen + [x] holds a configuration
    through x. Older ones were ruled out when their members were taken, so
    a new one holds x and the newest member; a forbidden family stays
    forbidden in every superset, so x stays dead. `_nontrivial_kills` finds
    the dead for every live candidate at once in one walk over the chosen
    subfamilies through the newest member. One node is one branch or one
    step of that walk.
    """
    check_order(n, k)
    if config.kind == "avd-system" and sum(config.part_sizes) != k:
        raise ParameterError(
            f"block sizes {config.part_sizes} must sum to k={k}")
    cand = list(combinations(range(1, n + 1), k))
    masks = [mask_of(e) for e in cand]
    total = len(cand)
    counter = NodeCounter(budget)
    meeting = Meeting(masks)
    by_meet = _MeetSizes(masks, k)

    def killed(chosen_mask: int, live: int) -> int:
        # the live candidates that complete a forbidden subfamily with chosen
        dead = 0
        if kills is not None:
            # once the newest member and all of rest are chosen, each of
            # these later candidates would complete a conflict set
            for rest, kill in kills[chosen[-1]].items():
                if chosen_mask & rest == rest:
                    dead |= kill
        elif len(chosen) + 1 >= config.t:
            dead = _nontrivial_kills(masks, chosen_mask, chosen[-1], live, config.t,
                                     config.d, meeting, counter)
        return dead

    # the star through vertex 1 holds no configuration: simplices and
    # nontrivial families have an empty meet, and a cluster's group for the
    # block that holds vertex 1 misses vertex 1
    star_idx = [i for i, e in enumerate(cand) if e[0] == 1]
    best = len(star_idx)
    found: dict[frozenset[int], tuple[Edge, ...]] = {
        frozenset(star_idx): tuple(cand[i] for i in star_idx)}
    chosen: list[int] = []
    exact = True

    def record():
        # reached only by a branch its parent let through, so size >= best
        nonlocal best
        size = len(chosen)
        if size > best:
            best = size
            found.clear()
        key = frozenset(chosen)
        if key not in found:
            found[key] = tuple(cand[i] for i in chosen)

    def refine(cells: list[int], m: int) -> list[int]:
        # the cells once member m is chosen: each splits into its part in m
        # and the rest
        return [part for c in cells for part in (c & m, c & ~m) if part]

    def dfs(live: int, chosen_mask: int, cells: list[int]):
        # the parent ticked this branch and found it not below the bound;
        # each child is ticked and bounded here before it costs a call, a
        # refinement or an orbit, and the drop branch is this loop
        size = len(chosen)
        while live:
            low = live & -live
            x = low.bit_length() - 1
            m = masks[x]
            rest = live ^ low
            chosen.append(x)
            keep = rest & ~killed(chosen_mask | low, rest)
            counter.tick()
            if size + 1 + keep.bit_count() >= best:
                dfs(keep, chosen_mask | low, refine(cells, m))
            chosen.pop()
            counter.tick()
            # the orbit holds x, so what the drop leaves lies inside rest
            if size + rest.bit_count() < best:
                return
            orbit = live
            for c in cells:
                orbit &= by_meet[c][(m & c).bit_count()]
            live &= ~orbit
            if size + live.bit_count() < best:
                return
        record()

    try:
        kills = conflict_kills(masks, config, meeting, counter)
        chosen.append(0)
        live = (1 << total) - 2
        live &= ~killed(1, live)
        counter.tick()
        if 1 + live.bit_count() >= best:
            dfs(live, 1, refine([(1 << n) - 1], masks[0]))
    except BudgetExceeded:
        exact = False
    families = tuple(sorted(found.values()))
    return ExtremalResult(n, k, config, best, families, counter.nodes, exact)


@dataclass(frozen=True)
class StabilityReport:
    n: int
    k: int
    size: int
    vertex: int
    degree: int
    missed: int
    epsilon: float
    delta: float | None = None
    within_delta: bool | None = None

    def to_json(self) -> dict:
        # without delta, within_delta is None too
        return {k: v for k, v in vars(self).items() if v is not None}


def stability_scan(h: Hypergraph, epsilon: float,
                   delta: float | None = None) -> StabilityReport:
    """Best vertex of a near-full family and how many members miss it.

    Requires the family to hold at least a (1-epsilon) fraction of a full
    star's size, checked exactly. With delta, also reports whether the
    missed count stays within delta * n^(k-1).
    """
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if value is not None and not isfinite(value):
            raise ParameterError(f"{name} must be a finite number, got {value}")
    eps = Fraction(epsilon)
    if not 0 <= eps < 1:
        raise ParameterError(f"epsilon must be in [0, 1), got {epsilon}")
    full = comb(h.n - 1, h.k - 1)
    if Fraction(len(h)) < (1 - eps) * full:
        raise ParameterError(
            f"family has {len(h)} members, below the required "
            f"(1-{epsilon}) * {full}")
    vertex = max(range(1, h.n + 1), key=lambda v: (h.degree(v), -v))
    degree = h.degree(vertex)
    missed = len(h) - degree
    within = None
    if delta is not None:
        dd = Fraction(delta)
        if dd < 0:
            raise ParameterError(f"delta must be nonnegative, got {delta}")
        within = Fraction(missed) <= dd * h.n ** (h.k - 1)
    return StabilityReport(h.n, h.k, len(h), vertex, degree, missed,
                           float(epsilon), delta, within)
