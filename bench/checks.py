"""Independent answer checks for the benchmark's jobs.

Nothing here imports deltasys: each check re-reads the job's input file with
its own parser and re-derives the answer with plain set logic, a brute force
or a different algorithm than the program's. A check factory returns
`check(report, exit_code) -> list of problems`; an empty list means the job
answered correctly. Expensive oracles run once per check and are cached,
because every pass of a workload asks the same question.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations


@cache
def read_graph(path: str) -> tuple[int, int, tuple[frozenset[int], ...]]:
    """(n, k, edges) of a file in the "n k" header plus one-edge-per-line format."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip() and not line.startswith("#")]
    n, k = map(int, rows[0])
    return n, k, tuple(frozenset(map(int, row)) for row in rows[1:])


def _meet(sets) -> frozenset[int]:
    sets = list(sets)
    return frozenset.intersection(*sets) if sets else frozenset()


def nontrivial_problems(family, edges, t: int, d: int) -> list[str]:
    """Why `family` is not t distinct input edges, d-wise intersecting, with no common vertex."""
    fam = [frozenset(e) for e in family]
    out = []
    if len(fam) != t or len(set(fam)) != t:
        out.append(f"witness has {len(set(fam))} distinct members, expected {t}")
    if not set(fam) <= set(edges):
        out.append("witness uses a set that is not an input edge")
    if any(not _meet(sub) for sub in combinations(fam, min(d, len(fam)))):
        out.append(f"witness is not {d}-wise intersecting")
    if _meet(fam):
        out.append("witness has a common vertex")
    return out


def nontrivial_exists(edges, t: int, d: int) -> bool:
    """Does some t-subfamily exist that is d-wise intersecting with no common vertex?

    Bitset enumeration of d-wise intersecting families in index order: a
    candidate survives while it meets every (d-1)-subset of the chosen
    members. Unlike the program's kernel, nothing is pruned on the common
    vertex; only complete families are tested for it.
    """
    masks = [sum(1 << (v - 1) for v in e) for e in edges]
    full = (1 << len(masks)) - 1
    compat: dict[tuple[int, ...], int] = {}

    def meets(group: tuple[int, ...]) -> int:
        if group not in compat:
            inter = -1
            for i in group:
                inter &= masks[i]
            compat[group] = sum(1 << j for j, mj in enumerate(masks) if mj & inter)
        return compat[group]

    def rec(chosen: tuple[int, ...], cand: int, common: int) -> bool:
        if len(chosen) == t:
            return common == 0
        while cand:
            j = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            nxt = cand
            for sub in combinations(chosen, d - 2):
                nxt &= meets(sub + (j,))
            if rec(chosen + (j,), nxt, common & masks[j]):
                return True
        return False

    return rec((), full, -1)


def _status_problems(report: dict, code: int, verdict: str, want_code: int) -> list[str]:
    out = []
    if code != want_code:
        out.append(f"exit code {code}, expected {want_code}")
    if report.get("verdict") != verdict:
        out.append(f"verdict {report.get('verdict')!r}, expected {verdict!r}")
    return out


# --- certify ---------------------------------------------------------------

def codegree_certificate(path: str, m: int) -> list[str]:
    """The paper's counting certificate for cx(n, m), recomputed from the file.

    Maximum pair codegree exactly m, and the pairs of codegree m forming
    vertex-disjoint triangles that cover every vertex, rule out a nontrivial
    pairwise-intersecting (3m+1)-subfamily.
    """
    n, k, edges = read_graph(path)
    pairs = Counter(p for e in edges for p in combinations(sorted(e), 2))
    out = []
    if k != 3 or max(pairs.values()) != m:
        out.append(f"input is not a 3-graph with maximum pair codegree {m}")
    adj = {v: set() for v in range(1, n + 1)}
    for (u, v), c in pairs.items():
        if c == m:
            adj[u].add(v)
            adj[v].add(u)
    if any(len(adj[v]) != 2 or any(adj[u] != {v} | adj[v] - {u} for u in adj[v])
           for v in adj):
        out.append(f"codegree-{m} pairs are not disjoint triangles covering 1..{n}")
    return out


def verified_counterexample(path: str, m: int):
    def check(report: dict, code: int) -> list[str]:
        res = report["result"]
        out = _status_problems(report, code, "verified", 0)
        if res["verdict"] != "verified" or res["budget_exhausted"] or "witness" in res:
            out.append("result is not a completed verification")
        if not res["nodes"] > 0:
            out.append("exhaustive search reports no nodes")
        return out + codegree_certificate(path, m)
    return check


def refuted_counterexample(path: str, m: int):
    def check(report: dict, code: int) -> list[str]:
        res = report["result"]
        out = _status_problems(report, code, "refuted", 1)
        if "witness" not in res:
            return out + ["refutation carries no witness"]
        return out + nontrivial_problems(res["witness"], read_graph(path)[2], 3 * m + 1, 2)
    return check


def nontrivial_answer(path: str, t: int, d: int):
    oracle = cache(lambda: nontrivial_exists(read_graph(path)[2], t, d))

    def check(report: dict, code: int) -> list[str]:
        res = report["result"]
        if oracle():
            out = _status_problems(report, code, "found", 0)
            return out + nontrivial_problems(res.get("witness", ()), read_graph(path)[2], t, d)
        out = _status_problems(report, code, "none", 1)
        if not res["nodes"] > 0:
            out.append("search reports no nodes")
        return out
    return check


# --- extremal --------------------------------------------------------------

def cluster_free(family, sizes: tuple[int, ...], d: int) -> bool:
    """No host, ordered partition of it and d other members forming a disjoint cluster.

    A member joins block i's group when it meets the host in exactly the
    host minus block i; every group is nonempty and all residues outside the
    host are pairwise disjoint.
    """
    fam = [frozenset(e) for e in family]
    cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    for host in fam:
        others = [e for e in fam if e != host]
        for order in permutations(sorted(host)):
            blocks = [frozenset(order[a:b]) for a, b in zip(cuts, cuts[1:])]
            centers = [host - b for b in blocks]
            for petals in combinations(others, d):
                groups = [centers.index(e & host) if e & host in centers else -1
                          for e in petals]
                if -1 in groups or len(set(groups)) != len(blocks):
                    continue
                residues = [e - host for e in petals]
                if all(not a & b for a, b in combinations(residues, 2)):
                    return False
    return True


def config_free(family, config: tuple) -> bool:
    if config[0] == "cluster":
        return cluster_free(family, config[1], config[2])
    _, t, d = config
    fam = [frozenset(e) for e in family]
    return not any(all(_meet(s) for s in combinations(sub, d)) and not _meet(sub)
                   for sub in combinations(fam, t))


def brute_force_max(n: int, k: int, config: tuple) -> int:
    """Largest configuration-free family of k-subsets of 1..n, by trying every family."""
    universe = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    for size in range(len(universe), 0, -1):
        if any(config_free(fam, config) for fam in combinations(universe, size)):
            return size
    return 0


def extremal_answer(n: int, k: int, pinned: int | None, config: tuple):
    expected = cache(lambda: pinned if pinned is not None else brute_force_max(n, k, config))

    def check(report: dict, code: int) -> list[str]:
        res = report["result"]
        out = _status_problems(report, code, "exact", 0)
        if res["exact"] is not True:
            out.append("search was not exact")
        if res["max_size"] != expected():
            out.append(f"max_size {res['max_size']}, expected {expected()}")
        if not res["families"] or not res["nodes"] > 0:
            out.append("no families or no nodes reported")
        forced = frozenset(range(1, k + 1))
        for fam in res["families"]:
            sets = [frozenset(e) for e in fam]
            if (len(set(sets)) != res["max_size"] or forced not in sets
                    or any(len(e) != k or not e <= set(range(1, n + 1)) for e in sets)):
                out.append(f"family {fam} is not {res['max_size']} distinct {k}-subsets "
                           f"through the forced edge")
            elif not config_free(sets, config):
                out.append(f"family {fam} contains the forbidden configuration")
        return out
    return check


# --- graphs ----------------------------------------------------------------

def _pattern_rank(k: int, pattern: set[frozenset[int]]) -> int:
    for size in range(k + 1):
        for a in map(frozenset, combinations(range(1, k + 1), size)):
            if a not in pattern and not any(a <= b for b in pattern):
                return size
    return k


def homogeneous_answer(path: str, s: int):
    def check(report: dict, code: int) -> list[str]:
        n, k, edges = read_graph(path)
        res = report["result"]
        cert = res["certificate"]
        out = _status_problems(report, code, "extracted", 0)
        sub = [frozenset(e) for e in cert["edges"]]
        if not sub or len(set(sub)) != len(sub) or not set(sub) <= set(edges):
            return out + ["subgraph is empty, repeats an edge or leaves the input"]
        if res["size"] != len(sub):
            out.append(f"size {res['size']} but {len(sub)} edges")
        parts = [frozenset(p) for p in cert["partition"]]
        part_of = {v: i for i, p in enumerate(parts, start=1) for v in p}
        if len(parts) != k or len(part_of) != n or sum(map(len, parts)) != n:
            return out + ["partition is not k disjoint parts covering 1..n"]
        if any(len({part_of[v] for v in e}) != k for e in sub):
            out.append("an edge is not rainbow")
        pattern = {frozenset(x) for x in cert["pattern"]}
        for e in sub:
            seen = {frozenset(part_of[v] for v in e & f) for f in sub if f != e}
            if seen != pattern:
                out.append(f"edge {sorted(e)} projects to another pattern")
                break
        if any(a & b not in pattern for a in pattern for b in pattern):
            out.append("pattern is not closed under intersection")
        witnessed = set()
        for w in cert["witnesses"]:
            e, center = frozenset(w["edge"]), frozenset(w["center"])
            petals = [frozenset(p) for p in w["petals"]]
            if (len(petals) != s or len(set(petals)) != s or e not in petals
                    or not set(petals) <= set(sub)
                    or any(a & b != center for a, b in combinations(petals, 2))):
                out.append(f"witness for {sorted(e)} at {sorted(center)} is not a "
                           f"{s}-petal sunflower through the edge")
            witnessed.add((e, center))
        needed = {(e, e & f) for e in sub for f in sub if f != e}
        if not needed <= witnessed:
            out.append("an edge intersection has no sunflower witness")
        r = _pattern_rank(k, pattern)
        bound = 1 if r == 0 else len({c for e in sub for c in combinations(sorted(e), r)})
        if res["size_bound"] != bound or len(sub) > bound:
            out.append(f"size {len(sub)} against bound {res['size_bound']}, recomputed {bound}")
        return out
    return check


def _shadow(path: str) -> set[tuple[int, ...]]:
    _, k, edges = read_graph(path)
    return {c for e in edges for c in combinations(sorted(e), k - 1)}


def weight_answer(path: str):
    def check(report: dict, code: int) -> list[str]:
        res = report["result"]
        count = len(_shadow(path))
        out = _status_problems(report, code, "verified", 0)
        if Fraction(res["weight_sum"]) != count or res["shadow_size"] != count:
            out.append(f"weight_sum {res['weight_sum']}, shadow_size {res['shadow_size']}; "
                       f"counted {count} one-smaller subsets")
        if res["edges"] != len(read_graph(path)[2]):
            out.append("edge count differs from the input")
        return out
    return check


def shadow_answer(path: str):
    def check(report: dict, code: int) -> list[str]:
        res = report["result"]
        own = sorted(_shadow(path))
        out = _status_problems(report, code, "ok", 0)
        if res["count"] != len(own) or res["subsets"] != [list(c) for c in own]:
            out.append(f"shadow of {res['count']} subsets differs from the {len(own)} counted")
        return out
    return check
