"""Exact maximum family sizes under a forbidden configuration, plus stability.

`max_avoiding` runs a complete branch and bound over all k-subsets of the
vertex set, forbidding any subfamily that forms the given configuration.
The first edge 1..k is forced, which loses no size by relabeling and keeps
the search canonical; the star through vertex 1 seeds the incumbent when it
is itself configuration-free. All maximum families through the forced edge
are collected.

`stability_scan` measures how close a near-maximum family is to a star:
the best vertex, its degree, and how many members miss it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isfinite

from .errors import BudgetExceeded, ParameterError
from .hypergraph import Edge, Hypergraph, mask_of
from .intersecting import nontrivial_search_masks
from .search import NodeCounter, default_budget
from .sunflowers import cluster_search_masks

CONFIG_KINDS = ("nontrivial-intersecting", "d-simplex", "avd-system")


@dataclass(frozen=True)
class ForbiddenConfig:
    """A subfamily shape to exclude.

    nontrivial-intersecting: t members, d-wise intersecting, no common vertex.
    d-simplex: d+1 members, every d sharing a vertex, empty total
    intersection (the t = d+1 case of the above).
    avd-system: a host-partitioned sunflower cluster with the given block
    sizes and d petal edges in total.
    """

    kind: str
    t: int | None = None
    d: int | None = None
    part_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in CONFIG_KINDS:
            raise ParameterError(f"unknown configuration kind {self.kind!r}")
        if self.kind == "nontrivial-intersecting":
            if self.t is None or self.d is None:
                raise ParameterError("nontrivial-intersecting needs t and d")
            if self.d < 2:
                raise ParameterError(f"d must be at least 2, got {self.d}")
            if self.t < self.d + 1:
                raise ParameterError(f"t must be at least d+1, got t={self.t}, d={self.d}")
            if self.part_sizes is not None:
                raise ParameterError("part_sizes only applies to avd-system")
        elif self.kind == "d-simplex":
            if self.d is None or self.d < 1:
                raise ParameterError("d-simplex needs d >= 1")
            if self.t is not None or self.part_sizes is not None:
                raise ParameterError("d-simplex takes only d")
        else:
            if self.part_sizes is None or self.d is None:
                raise ParameterError("avd-system needs part_sizes and d")
            sizes = tuple(self.part_sizes)
            if len(sizes) < 2 or any(x < 1 for x in sizes):
                raise ParameterError(f"part sizes must be >=2 positive entries, got {sizes}")
            if self.d < len(sizes):
                raise ParameterError(f"d={self.d} must be at least the block count {len(sizes)}")
            object.__setattr__(self, "part_sizes", sizes)

    def describe(self) -> str:
        if self.kind == "nontrivial-intersecting":
            return (f"{self.t} members, {self.d}-wise intersecting, "
                    f"no common vertex")
        if self.kind == "d-simplex":
            return f"{self.d + 1} members, every {self.d} sharing a vertex, empty total"
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
    runtime_seconds: float
    exact: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "config": {"kind": self.config.kind,
                       **({"t": self.config.t} if self.config.t is not None else {}),
                       **({"d": self.config.d} if self.config.d is not None else {}),
                       **({"part_sizes": list(self.config.part_sizes)}
                          if self.config.part_sizes is not None else {})},
            "max_size": self.max_size,
            "exact": self.exact,
            "families": [[list(e) for e in fam] for fam in self.families],
            "nodes": self.nodes,
            "runtime_seconds": self.runtime_seconds,
        }


def _simplex_with_new(masks: list[int], chosen: list[int], new: int, d: int,
                      counter: NodeCounter) -> bool:
    """Does some d-simplex use the new edge and d others already chosen?"""
    if len(chosen) < d:
        return False
    nm = masks[new]
    for sub in combinations(chosen, d):
        counter.tick()
        ms = [masks[i] for i in sub]
        total = nm
        for m in ms:
            total &= m
        if total:
            continue
        # total empty; need every d-subset to intersect
        ok = True
        group = ms + [nm]
        for skip in range(d + 1):
            inter = -1
            for j, m in enumerate(group):
                if j == skip:
                    continue
                inter = m if inter == -1 else inter & m
                if not inter:
                    break
            if not inter:
                ok = False
                break
        if ok:
            return True
    return False


def max_avoiding(n: int, k: int, config: ForbiddenConfig,
                 budget: int | None = None) -> ExtremalResult:
    """Largest families of k-subsets of 1..n with no forbidden subfamily.

    Exact and deterministic. Results carry every maximum family through the
    forced first edge 1..k; with an exhausted budget `exact` is False and
    max_size is only a lower bound.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if config.kind == "avd-system" and sum(config.part_sizes) != k:
        raise ParameterError(
            f"block sizes {config.part_sizes} must sum to k={k}")
    start = time.perf_counter()
    cand = list(combinations(range(1, n + 1), k))
    masks = [mask_of(e) for e in cand]
    counter = NodeCounter(budget if budget is not None else default_budget())

    if config.kind == "d-simplex":
        t_eq, d_eq = config.d + 1, config.d
    elif config.kind == "nontrivial-intersecting":
        t_eq, d_eq = config.t, config.d
    else:
        t_eq = d_eq = None

    def creates(chosen: list[int], new: int) -> bool:
        sel = chosen + [new]
        if config.kind == "avd-system":
            if len(sel) < config.d + 1:
                return False
            hit = cluster_search_masks([masks[i] for i in sel], k,
                                       config.part_sizes, config.d, counter,
                                       require=len(sel) - 1)
            return hit is not None
        if len(sel) < t_eq:
            return False
        if t_eq == d_eq + 1 and d_eq >= 1:
            return _simplex_with_new(masks, chosen, new, d_eq, counter)
        hit = nontrivial_search_masks([masks[i] for i in sel], n, t_eq, d_eq,
                                      counter, require=len(sel) - 1)
        return hit is not None

    def family_free(idx: list[int]) -> bool:
        sel_masks = [masks[i] for i in idx]
        if config.kind == "avd-system":
            return cluster_search_masks(sel_masks, k, config.part_sizes,
                                        config.d, counter) is None
        if d_eq >= 2:
            return nontrivial_search_masks(sel_masks, n, t_eq, d_eq,
                                           counter) is None
        # 1-simplex: two disjoint members
        for a, b in combinations(sel_masks, 2):
            counter.tick()
            if not a & b:
                return False
        return True

    best = 0
    found: dict[frozenset[int], tuple[Edge, ...]] = {}
    chosen: list[int] = []
    total = len(cand)
    exact = True

    def record():
        nonlocal best
        size = len(chosen)
        if size > best:
            best = size
            found.clear()
        if size == best:
            found.setdefault(frozenset(chosen), tuple(cand[i] for i in chosen))

    def dfs(pos: int):
        counter.tick()
        if pos == total:
            record()
            return
        if len(chosen) + (total - pos) < best:
            return
        if not creates(chosen, pos):
            chosen.append(pos)
            dfs(pos + 1)
            chosen.pop()
        dfs(pos + 1)

    try:
        star_idx = [i for i, e in enumerate(cand) if e[0] == 1]
        if family_free(star_idx):
            best = len(star_idx)
            found[frozenset(star_idx)] = tuple(cand[i] for i in star_idx)
        chosen.append(0)
        dfs(1)
    except BudgetExceeded:
        exact = False
    families = tuple(sorted(found.values()))
    return ExtremalResult(n, k, config, best, families, counter.nodes,
                          time.perf_counter() - start, exact)


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
        out = {"n": self.n, "k": self.k, "size": self.size,
               "vertex": self.vertex, "degree": self.degree,
               "missed": self.missed, "epsilon": self.epsilon}
        if self.delta is not None:
            out["delta"] = self.delta
            out["within_delta"] = self.within_delta
        return out


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
