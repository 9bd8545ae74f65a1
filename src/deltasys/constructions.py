"""Triple systems, matchings, and the dense codegree-capped construction.

The centerpiece glues a pair-exact triple system (every vertex pair in
exactly m-1 blocks) to a perfect matching drawn from its complement. The
result has maximum pair codegree exactly m, with the codegree-m pairs
forming vertex-disjoint triangles, and it is large while provably avoiding
any nontrivial pairwise-intersecting subfamily of size 3m+1. The verifier
recomputes all of that from scratch, by counting or by exhaustive search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

from .errors import AdmissibilityError, ConstructionError, ParameterError, check_int
from .hypergraph import (Edge, Hypergraph, _pair_histogram, _pair_table, _require_triples,
                         check_order, holders_of, subset_degrees)
from .intersecting import CODEGREE_BOUND_TAGS, find_nontrivial_subfamily, km_codegree_bound
from .search import Check, NodeCounter, SearchOutcome, SearchStatus, bounded


@dataclass(frozen=True)
class DesignSpec:
    """Parameters of a pair-exact triple system: every pair in exactly lam blocks."""

    n: int
    lam: int

    def __post_init__(self):
        check_int("n", self.n, 3)
        check_int("multiplicity lam", self.lam, 1)
        if self.lam > self.n - 2:
            raise AdmissibilityError(
                f"no triple system on {self.n} vertices with multiplicity "
                f"{self.lam}: a pair lies in at most {self.n - 2} distinct triples")
        if (self.lam * self.n * (self.n - 1)) % 6 or (self.lam * (self.n - 1)) % 2:
            raise AdmissibilityError(
                f"no triple system on {self.n} vertices with multiplicity "
                f"{self.lam}: divisibility fails")
        check_order(self.n, 3)

    @property
    def block_count(self) -> int:
        return self.lam * self.n * (self.n - 1) // 6


def build_star(n: int, k: int) -> Hypergraph:
    """All k-subsets of 1..n through vertex 1."""
    check_order(n, k)
    edges = [(1,) + rest for rest in combinations(range(2, n + 1), k - 1)]
    return Hypergraph(n, k, edges)


def _difference_triples(n: int) -> list[tuple[int, int, int]] | None:
    """Partition the folded differences into realizable triples, if possible.

    A triple (d1, d2, d3) with d1 < d2 < d3 comes from a cyclic block orbit
    exactly when d1 + d2 == d3 or d1 + d2 + d3 == n.
    """
    diffs = set(range(1, n // 2 + 1))
    if n % 3 == 0:
        diffs.discard(n // 3)
    out: list[tuple[int, int, int]] = []

    def rec() -> bool:
        if not diffs:
            return True
        d1 = min(diffs)
        diffs.remove(d1)
        rest = sorted(diffs)
        for i, d2 in enumerate(rest):
            for d3 in rest[i + 1:]:
                if d1 + d2 == d3 or d1 + d2 + d3 == n:
                    diffs.discard(d2)
                    diffs.discard(d3)
                    out.append((d1, d2, d3))
                    if rec():
                        return True
                    out.pop()
                    diffs.add(d2)
                    diffs.add(d3)
        diffs.add(d1)
        return False

    return out if rec() else None


def _cyclic_sts(n: int) -> list[Edge] | None:
    """Steiner triple system from a cyclic difference family, 1-based blocks."""
    if n % 6 not in (1, 3):
        return None
    trips = _difference_triples(n)
    if trips is None:
        return None
    blocks: list[Edge] = []
    if n % 3 == 0:
        third = n // 3
        for x in range(third):
            blocks.append(tuple(sorted((x + 1, x + third + 1, x + 2 * third + 1))))
    for d1, d2, _ in trips:
        for x in range(n):
            blocks.append(tuple(sorted(((x % n) + 1,
                                        ((x + d1) % n) + 1,
                                        ((x + d1 + d2) % n) + 1))))
    return blocks


def _backtrack_triples(n: int, lam: int, rng: random.Random,
                       forbidden: frozenset[Edge] = frozenset(),
                       node_cap: int = 200_000) -> list[Edge] | None:
    """Pair-exact cover by distinct triples, most-constrained pair first, or
    None once the attempt's own budget of `node_cap` nodes runs out."""
    need = {p: lam for p in combinations(range(1, n + 1), 2)}
    chosen: list[Edge] = []
    chosen_set: set[Edge] = set()

    def candidates(u: int, v: int) -> list[int]:
        out = []
        for w in range(1, n + 1):
            if w == u or w == v:
                continue
            a, b = (u, w) if u < w else (w, u)
            c, d_ = (v, w) if v < w else (w, v)
            if need[(a, b)] and need[(c, d_)]:
                t = tuple(sorted((u, v, w)))
                if t not in chosen_set and t not in forbidden:
                    out.append(w)
        return out

    def search(counter: NodeCounter) -> list[Edge] | None:
        # frames[i] is node i's pair and its untried third vertices; while
        # node i has a triple placed, it is chosen[i]
        frames: list[tuple[int, int, Iterator[int]]] = []
        while True:
            counter.tick()
            best_pair = None
            best_ws: list[int] | None = None
            for p, cnt in need.items():
                if not cnt:
                    continue
                ws = candidates(*p)
                if best_ws is None or len(ws) < len(best_ws):
                    best_pair, best_ws = p, ws
                    if not ws:
                        break
            if best_pair is None:
                return chosen
            if best_ws:
                rng.shuffle(best_ws)
                frames.append((*best_pair, iter(best_ws)))
            # back up to the deepest node with a third vertex left and place it
            while frames:
                u, v, ws = frames[-1]
                if len(chosen) == len(frames):
                    t = chosen.pop()
                    chosen_set.remove(t)
                    for q in combinations(t, 2):
                        need[q] += 1
                w = next(ws, None)
                if w is not None:
                    t = tuple(sorted((u, v, w)))
                    for q in combinations(t, 2):
                        need[q] -= 1
                    chosen.append(t)
                    chosen_set.add(t)
                    break
                frames.pop()
            else:
                return None

    return bounded(node_cap, search).witness


def _check_pair_exact(h: Hypergraph, lam: int) -> bool:
    """Does every vertex pair lie in exactly lam edges?"""
    table = subset_degrees(h, 2)
    return len(table) == comb(h.n, 2) and all(c == lam for c in table.values())


def build_triple_system(spec: DesignSpec, seed: int = 0) -> Hypergraph:
    """Pair-exact triple system for the given parameters; deterministic
    for a fixed seed.

    For n 1 or 3 mod 6, up to 64 seeded attempts stack lam block-disjoint
    single-multiplicity layers, the first cyclic when it can be; then up to
    64 backtrack directly. The output is always revalidated by counting.
    """
    check_int("seed", seed, None)
    n, lam = spec.n, spec.lam
    cyclic = _cyclic_sts(n)

    def stack(rng: random.Random) -> list[Edge] | None:
        layers: list[Edge] = []
        for _ in range(lam):
            layer = (cyclic if cyclic and not layers
                     else _backtrack_triples(n, 1, rng, frozenset(layers)))
            if layer is None:
                return None
            layers.extend(layer)
        return layers

    # (seed salt, builder) pairs, in the order tried
    ways = [(7_919, lambda rng: _backtrack_triples(n, lam, rng, node_cap=500_000))]
    if n % 6 in (1, 3):
        ways.insert(0, (97 if lam == 1 else 1_000_003, stack))
    for salt, build in ways:
        for attempt in range(64):
            blocks = build(random.Random(seed * salt + attempt))
            if blocks is not None:
                h = Hypergraph(n, 3, blocks)
                if not _check_pair_exact(h, lam):
                    raise ConstructionError("construction produced an invalid triple system")
                return h
    raise ConstructionError(
        f"no triple system with multiplicity {lam} found on {n} vertices")


def complement_triples(h: Hypergraph) -> Hypergraph:
    """All triples on the same vertex set that are not edges of h."""
    if h.k != 3:
        raise ParameterError(f"complement of triples needs k=3, got k={h.k}")
    edges = [e for e in combinations(range(1, h.n + 1), 3) if e not in h]
    return Hypergraph(h.n, 3, edges)


def find_perfect_matching(h: Hypergraph) -> tuple[Edge, ...] | None:
    """Disjoint edges covering every vertex, or None; exact backtracking."""
    if h.n % h.k:
        raise ParameterError(f"{h.k} must divide n={h.n} for a perfect matching")
    holders = holders_of(h.edges)
    chosen: list[int] = []

    def rec(covered: int) -> bool:
        if covered == (1 << h.n) - 1:
            return True
        v = 1
        while (covered >> (v - 1)) & 1:
            v += 1
        rest = holders.get(v, 0)
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            m = h.edge_masks[i]
            if m & covered:
                continue
            chosen.append(i)
            if rec(covered | m):
                return True
            chosen.pop()
        return False

    if not rec(0):
        return None
    return tuple(sorted(h.edges[i] for i in chosen))


@dataclass(frozen=True)
class ConstructionReport:
    system: Hypergraph
    m: int
    design_size: int
    matching: tuple[Edge, ...]
    max_codegree: int
    histogram: dict[int, int]
    triangles_ok: bool

    @property
    def size(self) -> int:
        return len(self.system)

    def to_json(self) -> dict:
        return {
            "n": self.system.n,
            "m": self.m,
            "size": self.size,
            "design_size": self.design_size,
            "matching": self.matching,
            "max_codegree": self.max_codegree,
            "codegree_histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "codegree_m_pairs_are_disjoint_triangles": self.triangles_ok,
        }


def _codegree_m_triangles(h: Hypergraph, pairs: dict[Edge, int],
                          m: int) -> tuple[bool, str | None]:
    """Do the pairs of codegree exactly m form disjoint triangles covering 1..n?

    `pairs` is the pair-degree table of h.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, h.n + 1)}
    for (u, v), c in pairs.items():
        if c == m:
            adj[u].add(v)
            adj[v].add(u)
    for v in range(1, h.n + 1):
        if len(adj[v]) != 2:
            return False, f"vertex {v} lies in {len(adj[v])} codegree-{m} pairs, expected 2"
    seen: set[int] = set()
    for v in range(1, h.n + 1):
        if v in seen:
            continue
        comp = {v} | adj[v]
        if len(comp) != 3 or any(adj[u] != comp - {u} for u in comp):
            return False, f"codegree-{m} pairs around vertex {v} do not close a triangle"
        seen |= comp
    return True, None


def build_counterexample(n: int, m: int, seed: int = 0) -> ConstructionReport:
    """Pair-exact system of multiplicity m-1 plus a perfect matching from its complement."""
    check_int("m", m, 4)
    if check_int("n", n, 3) % 3:
        raise ParameterError(f"n must be divisible by 3 for the matching, got {n}")
    spec = DesignSpec(n, m - 1)
    base = build_triple_system(spec, seed)
    matching = find_perfect_matching(complement_triples(base))
    if matching is None:
        raise ConstructionError(
            f"complement of the triple system on {n} vertices has no perfect matching")
    system = Hypergraph(n, 3, list(base.edges) + list(matching))
    pairs = subset_degrees(system, 2)
    tri_ok, _ = _codegree_m_triangles(system, pairs, m)
    return ConstructionReport(system, m, len(base), matching,
                              max(pairs.values(), default=0), _pair_histogram(pairs, n),
                              tri_ok)


@dataclass(frozen=True)
class VerificationReport:
    verdict: str  # "verified" | "conditional" | "refuted"
    mode: str
    m: int
    checks: tuple[Check, ...]
    witness: tuple[Edge, ...] | None = None
    nodes: int = 0
    budget_exhausted: bool = False

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "mode": self.mode,
            "m": self.m,
            "nodes": self.nodes,
            "budget_exhausted": self.budget_exhausted,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _degree_checks(h: Hypergraph, m: int) -> list[Check]:
    t = 3 * m + 1
    pairs = _pair_table(h, "maximum")
    delta2 = max(pairs.values(), default=0)
    checks = [Check("max-codegree", delta2 == m,
                    f"maximum pair codegree equals {m}",
                    f"measured {delta2}")]
    tri_ok, why = _codegree_m_triangles(h, pairs, m)
    checks.append(Check("codegree-triangles", tri_ok,
                        f"pairs of codegree {m} form disjoint triangles covering "
                        f"all {h.n} vertices", why))
    threshold = min(km_codegree_bound(tag, t) for tag in CODEGREE_BOUND_TAGS)
    checks.append(Check(
        "template-thresholds", threshold > m,
        f"every non-star template containing {t} members forces a pair of "
        f"codegree above {m}",
        f"least forced codegree {threshold}; the one-apex template is ruled "
        f"out by the triangle check"))
    return checks


def verify_counterexample(h: Hypergraph, m: int, mode: str = "both",
                          budget: int | None = None) -> VerificationReport:
    """Check that no nontrivial pairwise-intersecting subfamily of size 3m+1 exists.

    degree-argument: counting checks that rule the templates out. exhaustive:
    budgeted exact search for such a subfamily. A completed empty search
    verifies; passing counting checks alone are conditional; a found witness
    or failed check refutes. Budget exhaustion falls back to the counting
    verdict. A given budget is checked in every mode, degree-argument too,
    and so is the uniformity: a hypergraph that is not a 3-graph is refused
    before any check or search.
    """
    check_int("m", m, 4)
    if budget is not None:
        check_int("node budget", budget, 1)
    if mode not in ("degree-argument", "exhaustive", "both"):
        raise ParameterError(f"unknown mode {mode!r}")
    _require_triples(h, "maximum")
    t = 3 * m + 1
    # degree: the counting checks, empty when they have not run
    degree = _degree_checks(h, m) if mode != "exhaustive" else []
    checks = list(degree)
    search: SearchOutcome | None = None
    if mode != "degree-argument":
        search = find_nontrivial_subfamily(h, t, 2, budget)
        checks.append(Check(
            "exhaustive-search", search.status == SearchStatus.NONE,
            f"no {t} members are pairwise intersecting without a common vertex",
            f"status {search.status.value} after {search.nodes} nodes"))
        if search.status == SearchStatus.BUDGET and not degree:
            # fall back to counting to decide between conditional and refuted
            degree = _degree_checks(h, m)
            checks.extend(degree)
    witness, nodes, status = ((search.witness, search.nodes, search.status)
                              if search else (None, 0, None))
    if witness is not None or not all(c.ok for c in degree):
        verdict = "refuted"
    elif status == SearchStatus.NONE:
        verdict = "verified"
    else:
        verdict = "conditional"
    return VerificationReport(verdict, mode, m, tuple(checks), witness, nodes,
                              status == SearchStatus.BUDGET)
