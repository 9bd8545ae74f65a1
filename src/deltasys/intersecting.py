"""Intersecting families: d-wise checks, simplices, and template classification.

A family is d-wise intersecting when every min(d, family size)-subset has a
common vertex, and nontrivially so when the whole family has empty
intersection. A d-simplex is d+1 sets, every d of which share a vertex,
with empty total intersection.

`nontrivial_search_masks` searches for such a family, reading which members
meet a vertex set from one `hypergraph.Meeting` index. `check_nontrivial`
rechecks every witness it finds with its own holder table, sharing no code
with the search.

Large pairwise-intersecting families of triples fall into a short list of
shapes: a star, or one of six sporadic templates built from at most six
special core vertices. `classify_intersecting` finds the first template
that contains a given family by one search over core maps, pruned by the
label sets each template allows a member to carry, and
`check_km_codegree_bounds` verifies the maximum pair codegree forced by
each non-star template.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import ParameterError, check_int
from .hypergraph import (NO_MEETS, Edge, Hypergraph, Meeting, Meets, holders_of,
                         join_meets, mask_of, max_codegree2, meet, vertex_tuple,
                         vertices_of)
from .search import NodeCounter, SearchOutcome, bounded


def _normalized_family(edges: Sequence[Iterable[int]]) -> list[Edge]:
    fam = [vertex_tuple(e) for e in edges]
    if not fam:
        raise ParameterError("family must be nonempty")
    if any(not e for e in fam):
        raise ParameterError("family members must be nonempty sets")
    if len(set(fam)) != len(fam):
        raise ParameterError("family members must be pairwise distinct")
    return fam


@dataclass(frozen=True)
class FamilyWitness:
    """Outcome of a d-wise intersection check on a fixed family."""

    edges: tuple[Edge, ...]
    d: int
    intersecting: bool
    common: Edge
    nontrivial: bool
    violating: tuple[Edge, ...] | None = None


def check_nontrivial(edges: Sequence[Iterable[int]], d: int,
                     counter: NodeCounter | None = None) -> FamilyWitness:
    """d-wise intersecting with empty common intersection, with a named violator if not.

    The violator is the first min(d, |family|)-subset, in combinations order
    over the members as given, whose meet is empty. A family with a common
    vertex has none, so only a family whose total meet is empty walks: each
    prefix of all but the last member, in combinations order, completes with
    the lowest later member that misses every vertex of the prefix's meet.
    With a `counter`, each prefix is one tick of it, so the walk can run
    out of budget (BudgetExceeded).
    """
    check_int("intersection order d", d, 2)
    fam = _normalized_family(edges)
    masks = [mask_of(e) for e in fam]
    total = meet(masks)
    t = min(d, len(fam))
    violating = None
    if not total:
        # holders[v]: the members holding vertex v, over member positions
        holders: dict[int, int] = {}
        for i, e in enumerate(fam):
            for v in e:
                holders[v] = holders.get(v, 0) | 1 << i
        for prefix in combinations(range(len(fam)), t - 1):
            if counter is not None:
                counter.tick()
            later = (1 << len(fam)) - (2 << prefix[-1])
            for v in vertices_of(meet(masks[i] for i in prefix)):
                later &= ~holders[v]
            if later:
                last = (later & -later).bit_length() - 1
                violating = tuple(fam[i] for i in prefix + (last,))
                break
    common = vertices_of(total)
    intersecting = violating is None
    return FamilyWitness(tuple(sorted(fam)), d, intersecting, common,
                         intersecting and not common, violating)


def is_dwise_intersecting(edges: Sequence[Iterable[int]], d: int) -> bool:
    """Every min(d, |family|)-subset shares a vertex."""
    return check_nontrivial(edges, d).intersecting


def is_d_simplex(edges: Sequence[Iterable[int]], d: int | None = None) -> bool:
    """d+1 sets, every d sharing a vertex, empty total intersection."""
    fam = _normalized_family(edges)
    if d is None:
        d = len(fam) - 1
    check_int("simplex order d", d, 1)
    if len(fam) != d + 1:
        raise ParameterError(f"a {d}-simplex has {d + 1} sets, got {len(fam)}")
    masks = [mask_of(e) for e in fam]
    return not meet(masks) and all(meet(sub) for sub in combinations(masks, d))


def nontrivial_search_masks(vmasks: Sequence[int], t: int, d: int,
                            counter: NodeCounter) -> tuple[int, ...] | None:
    """Indices of a t-subfamily, d-wise intersecting, empty common intersection.

    `vmasks` are the members as vertex bitmasks. Each family F is reached
    exactly once, through its core. The core starts at F's lowest
    member; then, while the core has a common vertex, the common vertex v
    that the fewest candidates miss (the lowest one on ties) picks the
    lowest member of F missing v, and every lower member missing v is
    dropped from the candidates. The rule reads only the node's own state,
    so each family still has one path. A common vertex that no candidate
    misses stays common, which ends the branch. Once the core has no common
    vertex, the rest of F is a plain compatibility search over the
    candidates left, in index order. The two phases expand their children
    alike and differ only in what they pick: the candidates missing the
    chosen core vertex, or every candidate. A member once picked leaves the
    candidates of the children after it. Compatibility is pairwise
    intersection, read from one row per member of the members meeting it.
    For d >= 3 each path also carries the meets of every min(|chosen|, d-2)
    chosen members (`hypergraph.join_meets`), and a pick keeps only the
    candidates that meet each of them together with the pick: one
    `meeting` lookup per carried meet. A step joins its newest member to
    the meets it was handed only once it expands a child. While at least
    three picks remain, a greedy colouring of the candidates' intersection
    graph bounds how many of them fit together (Tomita and Seki's bound for
    maximum clique). Each colour class takes at least one candidate, so the
    colouring stops, and the step ends, once the classes so far plus the
    candidates still uncoloured fall short of the picks left; it prunes
    exactly where colouring every candidate would. The candidates only ever
    hold members that fit the chosen ones, so the last member is read from
    the holder bitsets: the lowest candidate that misses every common
    vertex, in place in the loop of the step with two members left.

    Every child, the root's included, is expanded in that one loop of
    `step`. The root hands it the picks of each position of the witness and
    adds no rule of its own: every member in the existence search, then, on
    FOUND, the members below the one the witness holds at that position.

    One node is one tick of `counter`: the root, which also rules out a
    vertex in every member, one core step, one compatibility step, or one
    child with a single member left, whose last member is read in place in
    its parent's loop. A child whose narrowed candidates are too few to
    reach t is neither visited nor ticked, the root's children included.

    On FOUND only, the witness is rebuilt into the first in lexicographic
    order over the caller's list by fixing one member at a time, at most
    (t-1)*m further searches.
    """
    m = len(vmasks)
    if t < 2 or m < t:
        # a family of at most one member is never nontrivial
        return None
    full = (1 << m) - 1
    meeting = Meeting(vmasks)
    # rows[j]: the members meeting member j; apart[j]: those missing it;
    # misses[v]: the members missing vertex v
    rows = [meeting[x] for x in vmasks]
    apart = [~r for r in rows]
    misses = {v: ~h for v, h in meeting.holders.items()}
    wide = d > 2

    def last(cand: int, common: int) -> int:
        # the lowest candidate missing every common vertex, or -1
        while common:
            low = common & -common
            common ^= low
            cand &= misses[low.bit_length()]
        return (cand & -cand).bit_length() - 1

    def step(chosen: tuple[int, ...], common: int, cand: int, meets: Meets,
             pick: int | None = None) -> tuple[int, ...] | None:
        need = t - len(chosen)
        have = cand.bit_count()
        if pick is None:
            # a node: pick is the candidates a child is tried for, in index order
            counter.tick()
            pick = cand
            if common:
                # branch on the core vertex that the fewest candidates miss,
                # and pick its misses; a vertex that no candidate misses stays
                # common, so the branch ends
                fewest = have + 1
                rest = common
                while rest:
                    low = rest & -rest
                    rest ^= low
                    out = cand & misses[low.bit_length()]
                    size = out.bit_count()
                    if size < fewest:
                        if not size:
                            return None
                        pick, fewest = out, size
            elif need >= 3:
                # the picks left are pairwise intersecting, so at most one per
                # colour class of pairwise disjoint candidates; each class
                # takes at least one candidate, so once the classes so far
                # plus the candidates still uncoloured fall short, the
                # colouring does too
                left = cand
                for colours in range(1, need):
                    q = left
                    while q:
                        low = q & -q
                        left ^= low
                        q &= apart[low.bit_length() - 1]
                    if colours + left.bit_count() < need:
                        return None
            if wide:
                # the newest member joins the carried meets once the step expands
                meets = join_meets(meets, vmasks[chosen[-1]], d)
        top = meets[-1]
        # left: the candidates less the picks already tried; have: its size;
        # more: the members a child still needs
        left = cand
        more = need - 1
        while pick:
            if have < need:
                return None
            low = pick & -pick
            pick ^= low
            left ^= low
            have -= 1
            b = low.bit_length() - 1
            child = left & rows[b]
            if wide:
                x = vmasks[b]
                for y in top:
                    child &= meeting[y & x]
            if child.bit_count() >= more:
                if more == 1:
                    # the child's one member left is read in place, as one node
                    counter.tick()
                    c = last(child, common & vmasks[b])
                    if c >= 0:
                        return chosen + (b, c)
                else:
                    hit = step(chosen + (b,), common & vmasks[b], child, meets)
                    if hit:
                        return hit
        return None

    counter.tick()
    if meet(vmasks):
        return None
    # the existence search tries every member as the lowest; on FOUND, each
    # later position of the witness tries the members below the one it
    # holds, so it drops to the first that still completes a family, which
    # gives the lexicographically first one; the last position is the
    # lowest candidate left that misses every common vertex
    prefix: tuple[int, ...] = ()
    witness: list[int] | None = None
    cand, common, meets = full, -1, NO_MEETS
    for pos in range(t - 1):
        pick = cand if witness is None else cand & ((1 << witness[pos]) - 1)
        hit = step(prefix, common, cand, meets, pick)
        if hit:
            witness = sorted(hit)
        elif witness is None:
            return None
        b = witness[pos]
        x = vmasks[b]
        cand &= ~((2 << b) - 1)
        for y in meets[-1]:
            cand &= meeting[y & x]
        common &= x
        prefix += (b,)
        meets = join_meets(meets, x, d)
    return prefix + (last(cand, common),)


def find_nontrivial_subfamily(h: Hypergraph, t: int, d: int,
                              budget: int | None = None) -> SearchOutcome:
    """Exact budgeted search for t edges, d-wise intersecting, no common vertex."""
    check_int("intersection order d", d, 2)
    if check_int("target size t", t, 0) < d + 1:
        raise ParameterError(
            f"target size {t} below {d + 1}: any {d}-wise intersecting family "
            f"of at most {d} sets has a common vertex")

    def search(counter: NodeCounter) -> tuple[Edge, ...] | None:
        hit = nontrivial_search_masks(h.edge_masks, t, d, counter=counter)
        return None if hit is None else tuple(h.edges[i] for i in hit)

    out = bounded(budget, search)
    if out.found and not check_nontrivial(out.witness, d).nontrivial:
        raise AssertionError("search produced an invalid subfamily")
    return out


# --- template classification for pairwise-intersecting triple families ---

# Exceptional member triples of each sporadic template, over core vertices.
# The main part of each template is given by _main_member below.
_EXCEPTIONAL: dict[str, tuple[tuple[int, int, int], ...]] = {
    "EKR": (),
    "H0": (),
    "H1": ((2, 3, 4),),
    "H2": ((2, 3, 4), (2, 3, 5), (1, 4, 5)),
    "H3": ((1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5)),
    "H4": ((1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6)),
    "H5": ((1, 3, 4), (1, 5, 6), (1, 3, 6), (2, 3, 5), (2, 3, 6), (2, 4, 6)),
}

_CORE_SIZE = {"EKR": 1, "H0": 3, "H1": 4, "H2": 5, "H3": 5, "H4": 6, "H5": 6}

TEMPLATE_TAGS = ("EKR", "H0", "H1", "H2", "H3", "H4", "H5")


def _main_member(tag: str, core: frozenset[int]) -> bool:
    """Does a triple whose core-labelled vertices are `core` lie in the main part?"""
    if tag == "EKR":
        return 1 in core
    if tag == "H0":
        return len(core & {1, 2, 3}) >= 2
    if tag == "H1":
        return 1 in core and bool(core & {2, 3, 4})
    if tag == "H2":
        return 1 in core and bool(core & {2, 3})
    # H3, H4, H5 share the two-anchor main part
    return {1, 2} <= core


@dataclass(frozen=True)
class KMFamily:
    """A template tag with an injective map from core labels to actual vertices."""

    tag: str
    mapping: Mapping[int, int]

    def __post_init__(self):
        if self.tag not in TEMPLATE_TAGS:
            raise ParameterError(f"unknown template tag {self.tag!r}")
        m = dict(self.mapping)
        if sorted(m) != list(range(1, _CORE_SIZE[self.tag] + 1)):
            raise ParameterError(
                f"{self.tag} needs core labels 1..{_CORE_SIZE[self.tag]}, got {sorted(m)}")
        if len(set(m.values())) != len(m):
            raise ParameterError("core mapping must be injective")
        object.__setattr__(self, "mapping", m)
        # built once per family: the bit of each mapped vertex's core label
        object.__setattr__(self, "_bit", {v: 1 << (c - 1) for c, v in m.items()})

    def contains_edge(self, edge: Iterable[int]) -> bool:
        """Is the triple's label set one the template allows (`_PREFIXES`)?"""
        e = vertex_tuple(edge)
        if len(e) != 3:
            raise ParameterError(f"templates classify triples, got {list(e)}")
        bit = self._bit
        return sum(bit.get(v, 0) for v in e) in _PREFIXES[self.tag][-1]

    def contains_family(self, h: Hypergraph) -> bool:
        return all(self.contains_edge(e) for e in h.edges)


def _label_prefixes(tag: str) -> list[frozenset[int]]:
    """[j]: the label sets a member of the template may carry, cut to labels
    1..j, as bitmasks with label c at bit c-1."""
    c = _CORE_SIZE[tag]
    allowed = [mask_of(s) for r in range(4) for s in combinations(range(1, c + 1), r)
               if _main_member(tag, frozenset(s)) or s in _EXCEPTIONAL[tag]]
    return [frozenset(a & ((1 << j) - 1) for a in allowed) for j in range(c + 1)]


_PREFIXES = {tag: _label_prefixes(tag) for tag in TEMPLATE_TAGS}


def _core_map(h: Hypergraph, tag: str, holders: dict[int, int]) -> dict[int, int] | None:
    """The first core map that puts every member of `h` inside template `tag`, or None.

    Labels 1..c go on vertices in turn, each in ascending vertex order. The
    members are split into cells by the labels they carry, and placing label
    j keeps only cells whose labels are an allowed label set cut to 1..j (a
    triple with i labels has 3 - i vertices left for the rest). A cell that
    needs j must take it on every member, so only vertices of its lowest
    member that hold them all are tried. Vertices that no member holds (in
    `holders`, from `holders_of(h.edges)`) are interchangeable, so only
    the lowest unused one is tried.
    """
    prefixes = _PREFIXES[tag]
    c = _CORE_SIZE[tag]
    mapping: dict[int, int] = {}

    def place(j: int, cells: dict[int, int]) -> dict[int, int] | None:
        if j > c:
            return dict(mapping)
        ok = prefixes[j]
        bit = 1 << (j - 1)
        must = 0
        for s, bits in cells.items():
            if s not in ok:
                must |= bits
        used = set(mapping.values())
        if must:
            low = must & -must
            tried = vertices_of(h.edge_masks[low.bit_length() - 1])
        else:
            fresh = 1
            while fresh in holders or fresh in used:
                fresh += 1
            tried = sorted([*holders, fresh])
        for v in tried:
            hv = holders.get(v, 0)
            if v in used or must & ~hv:
                continue
            split = {}
            for s, bits in cells.items():
                if bits & hv:
                    split[s | bit] = bits & hv
                if bits & ~hv:
                    split[s] = bits & ~hv
            if all(s in ok for s in split):
                mapping[j] = v
                found = place(j + 1, split)
                if found:
                    return found
                del mapping[j]
        return None

    return place(1, {0: (1 << len(h)) - 1})


def classify_intersecting(h: Hypergraph) -> KMFamily:
    """Match a large pairwise-intersecting triple family against the templates.

    Tags are tried in the fixed order EKR, H0..H5 and the first containing
    template is returned, so the answer is deterministic. Families too small
    or not pairwise intersecting are rejected. Every other family lies in a
    star or in one of H0..H5: each pairwise-intersecting family of at least
    11 triples does (Frankl 1980; Kostochka and Mubayi 2017), so a family
    that fits none means the core-map search is wrong.
    """
    if h.k != 3:
        raise ParameterError(f"classification needs triples, got k={h.k}")
    if len(h) < 11:
        raise ParameterError(f"classification needs at least 11 members, got {len(h)}")
    apart = check_nontrivial(h.edges, 2).violating
    if apart:
        raise ParameterError(f"family is not intersecting: {apart[0]} and {apart[1]} are disjoint")
    holders = holders_of(h.edges)
    for tag in TEMPLATE_TAGS:
        mapping = _core_map(h, tag, holders)
        if mapping is not None:
            return KMFamily(tag, mapping)
    raise AssertionError("core-map search placed an intersecting family in no template")


# the templates whose size forces a pair codegree: all but the star-like ones
CODEGREE_BOUND_TAGS = ("H0", "H2", "H3", "H4", "H5")


def km_codegree_bound(tag: str, size: int) -> int:
    """Least possible maximum pair codegree of a size-`size` family inside the template."""
    if tag not in CODEGREE_BOUND_TAGS:
        raise ParameterError(f"no codegree bound applies to template {tag}")
    check_int("size", size, 0)
    if tag == "H0":
        return -(-size // 3)
    if tag == "H2":
        return -(-(size - 3) // 2)
    return size - 6


def check_km_codegree_bounds(h: Hypergraph, km: KMFamily) -> bool:
    """Verify the template's forced lower bound on the maximum pair codegree."""
    if not km.contains_family(h):
        raise ParameterError("family is not contained in the given template")
    bound = km_codegree_bound(km.tag, len(h))
    return max_codegree2(h) >= bound
