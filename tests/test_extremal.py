"""Exact extremal search against brute-force oracles, plus stability checks."""

import hashlib
import json
import random
from itertools import combinations

import numpy as np
import pytest

from deltasys import (
    BudgetExceeded,
    CONFIG_KINDS,
    ForbiddenConfig,
    Hypergraph,
    NodeCounter,
    ParameterError,
    build_star,
    check_nontrivial,
    mask_of,
    max_avoiding,
    stability_scan,
    vertices_of,
)
from deltasys.extremal import _nontrivial_kills, conflict_kills
from deltasys.hypergraph import Meeting
from conftest import conflict_list, forms_cluster, labelled_images, labelled_max_avoiding


def brute_force_max_n5():
    """Max family of triples on [5] with no 3 pairwise-meeting, hub-free sets.

    Pure-python sweep over all 2^10 families; returns (best size, number of
    families attaining it, all attaining families as edge tuples).
    """
    edges = list(combinations(range(1, 6), 3))
    forbidden = []
    for idx in combinations(range(len(edges)), 3):
        if check_nontrivial([edges[i] for i in idx], 2).nontrivial:
            forbidden.append(sum(1 << i for i in idx))
    best, hits = 0, []
    for mask in range(1 << len(edges)):
        if any(mask & f == f for f in forbidden):
            continue
        size = mask.bit_count()
        if size > best:
            best, hits = size, [mask]
        elif size == best:
            hits.append(mask)
    families = [
        tuple(edges[i] for i in range(len(edges)) if mask >> i & 1)
        for mask in hits
    ]
    return best, len(hits), families


def numpy_max_n6():
    """Same question on [6] via a vectorized superset filter over 2^20 masks."""
    edges = list(combinations(range(1, 7), 3))
    forbidden = []
    for idx in combinations(range(len(edges)), 3):
        if check_nontrivial([edges[i] for i in idx], 2).nontrivial:
            forbidden.append(sum(1 << i for i in idx))
    masks = np.arange(1 << len(edges), dtype=np.uint32)
    valid = np.ones(masks.shape, dtype=bool)
    for f in forbidden:
        valid &= (masks & f) != f
    popcount = np.zeros(masks.shape, dtype=np.uint8)
    for i in range(len(edges)):
        popcount += ((masks >> i) & 1).astype(np.uint8)
    best = int(popcount[valid].max())
    attained = int(np.count_nonzero(valid & (popcount == best)))
    return best, attained


class TestConfigValidation:
    def test_kinds(self):
        ForbiddenConfig("nontrivial-intersecting", t=3, d=2)
        ForbiddenConfig("d-simplex", d=2)
        ForbiddenConfig("avd-system", part_sizes=(2, 1), d=2)
        with pytest.raises(ParameterError):
            ForbiddenConfig("nope", d=2)

    # a value each field may take in every kind that takes it
    FIELD_VALUES = {"t": 3, "d": 2, "part_sizes": (2, 1)}
    TAKES = {"nontrivial-intersecting": "t and d", "d-simplex": "d",
             "avd-system": "part_sizes and d"}

    @pytest.mark.parametrize("kind", CONFIG_KINDS)
    def test_each_kind_takes_exactly_its_fields(self, kind):
        fields = set(self.TAKES[kind].split(" and "))
        ForbiddenConfig(kind, **{f: self.FIELD_VALUES[f] for f in fields})
        for field in self.FIELD_VALUES:
            # leave out a field the kind takes, or give one it does not
            given = fields ^ {field}
            with pytest.raises(ParameterError,
                               match=f"^{kind} takes exactly {self.TAKES[kind]}$"):
                ForbiddenConfig(kind, **{f: self.FIELD_VALUES[f] for f in given})

    def test_nontrivial_shape(self):
        with pytest.raises(ParameterError):
            ForbiddenConfig("nontrivial-intersecting", t=2, d=2)
        with pytest.raises(ParameterError):
            ForbiddenConfig("nontrivial-intersecting", t=3, d=1)

    def test_simplex_shape(self):
        with pytest.raises(ParameterError):
            ForbiddenConfig("d-simplex")
        with pytest.raises(ParameterError):
            ForbiddenConfig("d-simplex", d=0)
        with pytest.raises(ParameterError):
            ForbiddenConfig("d-simplex", t=3, d=2)
        with pytest.raises(ParameterError):
            ForbiddenConfig("d-simplex", d=2, part_sizes=(2, 1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_simplex_is_nontrivial_with_t_one_above_d(self, d):
        config = ForbiddenConfig("d-simplex", d=d)
        assert config == ForbiddenConfig("nontrivial-intersecting", t=d + 1, d=d)

    def test_avd_shape(self):
        with pytest.raises(ParameterError):
            ForbiddenConfig("avd-system", part_sizes=(2,), d=2)
        with pytest.raises(ParameterError):
            ForbiddenConfig("avd-system", part_sizes=(2, 0), d=2)
        with pytest.raises(ParameterError):
            ForbiddenConfig("avd-system", part_sizes=(2, 1), d=1)
        with pytest.raises(ParameterError):
            ForbiddenConfig("avd-system", t=3, part_sizes=(2, 1), d=2)

    def test_order_above_the_vertex_cap_is_refused(self):
        config = ForbiddenConfig("nontrivial-intersecting", t=2, d=1)
        with pytest.raises(ParameterError, match="exceeds the vertex cap 128"):
            max_avoiding(129, 1, config)

    def test_fractional_size_is_refused(self):
        # with t = 4.5 the kill walk would never fill S
        with pytest.raises(ParameterError, match="t must be an integer"):
            ForbiddenConfig("nontrivial-intersecting", t=4.5, d=2)

    def test_fractional_block_sizes_are_refused(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            ForbiddenConfig("avd-system", part_sizes=(1.5, 1.5), d=2)

    def test_block_sizes_must_sum_to_k(self):
        config = ForbiddenConfig("avd-system", part_sizes=(1, 1), d=2)
        with pytest.raises(ParameterError, match=r"block sizes \(1, 1\) must sum to k=3"):
            max_avoiding(6, 3, config)

    def test_describe_mentions_the_parameters(self):
        text = ForbiddenConfig("nontrivial-intersecting", t=3, d=2).describe()
        assert "3" in text and "2-wise" in text


class TestAgainstBruteForce:
    def test_n5_matches_the_full_sweep(self):
        best, count, families = brute_force_max_n5()
        assert best == 6
        assert count == 5  # one star per vertex
        for fam in families:
            common = set.intersection(*(set(e) for e in fam))
            assert len(common) == 1
        res = max_avoiding(5, 3, ForbiddenConfig("nontrivial-intersecting", t=3, d=2))
        assert res.exact
        assert res.max_size == best
        # search normalizes by forcing the first edge, so the relabellings
        # of its families through (1,2,3) are the stars at 1, 2 and 3
        images = labelled_images(5, 3, res.families)
        assert len(images) == 3
        for fam in images:
            assert (1, 2, 3) in fam
            assert fam in [tuple(f) for f in families]

    def test_n6_matches_the_vectorized_sweep(self):
        best, attained = numpy_max_n6()
        assert best == 10
        assert attained == 6  # stars only, one per vertex
        res = max_avoiding(6, 3, ForbiddenConfig("nontrivial-intersecting", t=3, d=2))
        assert res.exact
        assert res.max_size == best
        assert len(labelled_images(6, 3, res.families)) == 3
        star = tuple(build_star(6, 3).edges)
        assert star in res.families

    def test_triangle_config_equals_2_simplex_config(self):
        a = max_avoiding(5, 3, ForbiddenConfig("nontrivial-intersecting", t=3, d=2))
        b = max_avoiding(5, 3, ForbiddenConfig("d-simplex", d=2))
        assert a.max_size == b.max_size
        assert a.families == b.families

    def test_single_simplex_order_is_plain_intersection(self):
        # forbidding two disjoint edges caps the family at the full star
        res = max_avoiding(6, 3, ForbiddenConfig("d-simplex", d=1))
        assert res.exact
        assert res.max_size == 10
        star = tuple(build_star(6, 3).edges)
        assert star in res.families

    def test_avd_instance(self):
        res = max_avoiding(6, 3, ForbiddenConfig("avd-system", part_sizes=(2, 1), d=2))
        assert res.exact
        assert res.max_size == 10
        star = tuple(build_star(6, 3).edges)
        assert star in res.families
        # every reported family is genuinely free of the configuration
        from deltasys import find_cluster

        for fam in res.families[:5]:
            h = Hypergraph(6, 3, fam)
            assert not find_cluster(h, (2, 1), 2).found

    # with t = 5 the budget runs out inside the walk of a kill check
    @pytest.mark.parametrize("t", [3, 5])
    def test_budget_interrupts_cleanly(self, t):
        res = max_avoiding(6, 3, ForbiddenConfig("nontrivial-intersecting", t=t, d=2), budget=40)
        assert not res.exact
        assert res.max_size == 10

    # the benchmark's jobs: one node per branch, plus one per step of
    # listing the conflict table or of a kill walk; the last two have
    # d >= 3 and took 1,465 and 387 nodes when the walk did not narrow its
    # candidates until d-2 members were picked
    @pytest.mark.parametrize("n,config,nodes", [
        (7, ForbiddenConfig("d-simplex", d=2), 2186),
        (6, ForbiddenConfig("avd-system", part_sizes=(2, 1), d=2), 1569),
        (6, ForbiddenConfig("nontrivial-intersecting", t=6, d=2), 2744),
        (6, ForbiddenConfig("nontrivial-intersecting", t=5, d=2), 449),
        (7, ForbiddenConfig("nontrivial-intersecting", t=6, d=3), 1459),
        (6, ForbiddenConfig("nontrivial-intersecting", t=7, d=4), 248),
    ], ids=["simplex-7-3", "avd-6-3", "nontriv-6-3-t6", "nontriv-6-3-t5",
            "nontriv-7-3-t6-d3", "nontriv-6-3-t7-d4"])
    def test_node_counts_are_pinned(self, n, config, nodes):
        assert max_avoiding(n, 3, config).nodes == nodes

    def test_budget_outcomes_are_pinned(self):
        # the outcome at every budget up to 200 and every 13th above it, up
        # to one past the node total, for the pinned configurations above;
        # one digest, recorded before the kill enumerations read their last
        # level in place
        outcomes = []
        for n, config in [(7, ForbiddenConfig("d-simplex", d=2)),
                          (6, ForbiddenConfig("avd-system", part_sizes=(2, 1), d=2)),
                          (6, ForbiddenConfig("nontrivial-intersecting", t=6, d=2)),
                          (6, ForbiddenConfig("nontrivial-intersecting", t=5, d=2)),
                          (7, ForbiddenConfig("nontrivial-intersecting", t=6, d=3)),
                          (6, ForbiddenConfig("nontrivial-intersecting", t=7, d=4))]:
            total = max_avoiding(n, 3, config).nodes
            for budget in sorted(set(range(1, 201)) | set(range(200, total + 2, 13))
                                 | {total, total + 1}):
                res = max_avoiding(n, 3, config, budget=budget)
                outcomes.append([budget, res.max_size, res.families, res.nodes, res.exact])
        assert len(outcomes) == 1782
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()[:16]
        assert digest == "841260dd502fe779"

    # the table kinds at d = 3, whose pins above all have d = 2; recorded
    # while each branch still ticked and tested its own bound on entry
    D3_TABLES = [(6, ForbiddenConfig("d-simplex", d=3), 14, 2993),
                 (7, ForbiddenConfig("avd-system", part_sizes=(2, 1), d=3), 20, 9006),
                 (6, ForbiddenConfig("avd-system", part_sizes=(1, 1, 1), d=3), 12, 625)]

    @pytest.mark.parametrize("n,config,value,nodes", D3_TABLES,
                             ids=["simplex-6-3-d3", "avd21-7-3-d3", "avd111-6-3-d3"])
    def test_d3_table_values_and_nodes_are_pinned(self, n, config, value, nodes):
        res = max_avoiding(n, 3, config)
        assert (res.max_size, res.nodes, res.exact) == (value, nodes, True)

    def test_d3_table_budget_outcomes_are_pinned(self):
        # sampled as in test_budget_outcomes_are_pinned, for the two smaller
        # configurations above
        outcomes = []
        for n, config, _, total in (self.D3_TABLES[0], self.D3_TABLES[2]):
            for budget in sorted(set(range(1, 201)) | set(range(200, total + 2, 13))
                                 | {total, total + 1}):
                res = max_avoiding(n, 3, config, budget=budget)
                outcomes.append([budget, res.max_size, res.families, res.nodes, res.exact])
        assert len(outcomes) == 650
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()[:16]
        assert digest == "62cc8dde8f7295ab"

    def test_result_json(self):
        res = max_avoiding(5, 3, ForbiddenConfig("d-simplex", d=2))
        js = res.to_json()
        assert js["max_size"] == res.max_size
        assert js["exact"] is True
        assert js["n"] == 5 and js["k"] == 3
        assert len(js["families"]) == len(res.families)
        assert js["families"] is res.families
        assert js["config"] == {"kind": "nontrivial-intersecting", "t": 3, "d": 2}

    def test_result_json_hands_over_the_block_sizes(self):
        config = ForbiddenConfig("avd-system", d=2, part_sizes=(2, 1))
        js = max_avoiding(5, 3, config).to_json()
        assert js["config"] == {"kind": "avd-system", "d": 2, "part_sizes": (2, 1)}
        assert js["config"]["part_sizes"] is config.part_sizes


def forms_config(edges, config):
    """Does this subfamily, all of it, form the configuration? Plain checks."""
    if config.kind != "avd-system":
        if len(edges) != config.t:
            return False
        if config.d == 1:
            return not set(edges[0]) & set(edges[1])
        return check_nontrivial(edges, config.d).nontrivial
    return forms_cluster(edges, config.part_sizes, config.d)


def brute_force_families(n, k, config):
    """Every largest configuration-free family through the forced edge 1..k.

    Sweeps all 2^(N-1) families of the N candidates that hold candidate 0,
    vectorized, against every forbidden subfamily found by `forms_config`.
    """
    cand = list(combinations(range(1, n + 1), k))
    t = config.t or config.d + 1
    forbidden = [sum(1 << i for i in idx)
                 for idx in combinations(range(len(cand)), t)
                 if forms_config([cand[i] for i in idx], config)]
    fams = (np.arange(1 << (len(cand) - 1), dtype=np.int64) << 1) | 1
    valid = np.ones(fams.shape, dtype=bool)
    for f in forbidden:
        valid &= (fams & f) != f
    sizes = np.zeros(fams.shape, dtype=np.int64)
    for i in range(len(cand)):
        sizes += (fams >> i) & 1
    best = int(sizes[valid].max())
    winners = fams[valid & (sizes == best)]
    return best, tuple(sorted(tuple(cand[i] for i in range(len(cand)) if int(f) >> i & 1)
                              for f in winners))


SIMPLEX = {d: ForbiddenConfig("d-simplex", d=d) for d in (1, 2, 3)}
NONTRIVIAL = tuple(ForbiddenConfig("nontrivial-intersecting", t=t, d=d)
                   for t, d in ((3, 2), (4, 3), (4, 2), (5, 2), (5, 3), (5, 4)))
AVD = {k: tuple(ForbiddenConfig("avd-system", part_sizes=a, d=d) for a, d in shapes)
       for k, shapes in ((2, (((1, 1), 2), ((1, 1), 3))),
                         (3, (((2, 1), 2), ((2, 1), 3), ((1, 1, 1), 3))))}
DIFFERENTIAL = [(k, n, config)
                for k, top in ((2, 6), (3, 5))
                for n in range(k + 1, top + 1)
                for config in (SIMPLEX[1],) + NONTRIVIAL + AVD[k]]
# the kill walk's grid: n <= 7, k <= 4, d in {2, 3} and t from d+2 to d+4,
# less the four cases where the labelled search needs over 10^6 nodes
KILL_WALK = [(k, n, ForbiddenConfig("nontrivial-intersecting", t=t, d=d))
             for k in (2, 3, 4)
             for n in range(max(4, k + 1), 8)
             for d in (2, 3)
             for t in range(d + 2, d + 5)
             if (n, k, t, d) not in ((7, 3, 6, 2), (7, 4, 5, 3), (7, 4, 6, 3), (7, 4, 7, 3))]
TABLE_KINDS = [(3, c) for c in tuple(SIMPLEX.values()) + AVD[3]] + [(2, c) for c in AVD[2]]


def describe(value):
    return value.describe() if isinstance(value, ForbiddenConfig) else str(value)


class TestDifferential:
    @pytest.mark.parametrize("k,n,config", DIFFERENTIAL, ids=describe)
    def test_against_all_families_through_the_forced_edge(self, k, n, config):
        best, families = brute_force_families(n, k, config)
        res = max_avoiding(n, k, config)
        assert res.exact
        assert res.max_size == best
        assert labelled_images(n, k, res.families) == families

    @pytest.mark.parametrize("k,n,config",
                             DIFFERENTIAL + [c for c in KILL_WALK if c not in DIFFERENTIAL],
                             ids=describe)
    def test_against_the_labelled_search(self, k, n, config):
        # every reported family, relabelled every way that keeps the edge
        # 1..k, gives exactly the families the labelled search lists
        oracle = labelled_max_avoiding(n, k, config)
        res = max_avoiding(n, k, config)
        assert oracle.exact and res.exact
        assert res.max_size == oracle.max_size
        assert labelled_images(n, k, res.families) == oracle.families
        star = tuple(e for e in combinations(range(1, n + 1), k) if e[0] == 1)
        assert (star in res.families) == (len(star) == res.max_size)

    @pytest.mark.parametrize("k,config", TABLE_KINDS, ids=describe)
    def test_conflict_table_matches_the_kernels(self, k, config):
        for n in range(k, 7):
            masks = [mask_of(e) for e in combinations(range(1, n + 1), k)]
            table = set(conflict_list(conflict_kills(masks, config, Meeting(masks),
                                                     NodeCounter())))
            for idx in combinations(range(len(masks)), config.d + 1):
                hit = forms_config([vertices_of(masks[i]) for i in idx], config)
                assert (sum(1 << i for i in idx) in table) == hit, (n, idx)

    @pytest.mark.parametrize("shape,entries,digest", [
        ((1, 1), 4032, "923434d82400f709"),
        ((1, 1, 1), 2220, "6864852b1439b2a6"),
        ((1, 2), 2070, "67d2d0d2deaedcaf"),
        ((2, 1), 2070, "67d2d0d2deaedcaf"),
    ], ids=str)
    def test_avd_tables_are_pinned(self, shape, entries, digest):
        # the sorted tables for n = k+1..7 and d = p..p+2
        k = sum(shape)
        tables = []
        for n in range(k + 1, 8):
            masks = [mask_of(e) for e in combinations(range(1, n + 1), k)]
            for d in range(len(shape), len(shape) + 3):
                config = ForbiddenConfig("avd-system", part_sizes=shape, d=d)
                tables.append(sorted(conflict_list(conflict_kills(
                    masks, config, Meeting(masks), NodeCounter()))))
        assert sum(map(len, tables)) == entries
        assert hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16] == digest

    def test_simplex_tables_are_pinned(self):
        # the sorted tables for k = 3 and 4, n = k+1..7 and d = 1..3
        tables = []
        for k in (3, 4):
            for n in range(k + 1, 8):
                masks = [mask_of(e) for e in combinations(range(1, n + 1), k)]
                for d in (1, 2, 3):
                    tables.append(sorted(conflict_list(conflict_kills(
                        masks, SIMPLEX[d], Meeting(masks), NodeCounter()))))
        assert sum(map(len, tables)) == 5356
        assert hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16] == "01ebd79266877ae8"

    def test_larger_configurations_have_no_table(self):
        masks = [mask_of(e) for e in combinations(range(1, 6), 3)]
        config = ForbiddenConfig("nontrivial-intersecting", t=4, d=2)
        assert conflict_kills(masks, config, Meeting(masks), NodeCounter()) is None


def brute_force_kills(cand, chosen, newest, live, t, d):
    """x is dead iff some (t-1)-subset of chosen holding newest, plus x, is forbidden."""
    others = [i for i in chosen if i != newest]
    dead = 0
    for x in live:
        if any(check_nontrivial([cand[i] for i in (newest,) + rest + (x,)], d).nontrivial
               for rest in combinations(others, t - 2)):
            dead |= 1 << x
    return dead


class TestBulkTicks:
    def test_add_stops_at_one_past_the_limit(self):
        counter = NodeCounter(10)
        counter.add(4)
        counter.add(6)
        assert counter.nodes == 10
        with pytest.raises(BudgetExceeded) as exc:
            counter.add(1)
        assert counter.nodes == exc.value.nodes == 11
        far = NodeCounter(10)
        far.tick()
        with pytest.raises(BudgetExceeded) as exc:
            far.add(10**6)
        assert far.nodes == exc.value.nodes == 11

    @pytest.mark.parametrize("n,k", [(8, 3), (7, 4)])
    def test_budget_runs_out_inside_one_add(self, n, k, monkeypatch):
        # a leaf of the simplex listing ticks once per simplex it finds, in
        # one add; at these sizes the 601st tick falls inside one, and the
        # search ends as ticking one simplex at a time ends it: at 601
        # nodes, with the star
        adds = []
        add = NodeCounter.add

        def spy(self, count):
            adds.append((self.nodes, count))
            add(self, count)

        monkeypatch.setattr(NodeCounter, "add", spy)
        res = max_avoiding(n, k, ForbiddenConfig("d-simplex", d=2), budget=600)
        before, count = adds[-1]
        assert before < 600 < before + count - 1
        assert not res.exact
        assert res.nodes == 601
        star = tuple(e for e in combinations(range(1, n + 1), k) if e[0] == 1)
        assert res.families == (star,)
        assert res.max_size == len(star)


class TestKillEnumeration:
    def test_against_every_subfamily_through_the_newest_member(self):
        # 300 seeded chosen/live states with k in {2, 3, 4}, d in {2, 3} and
        # t from d+2 to d+4; the newest member is any chosen one
        rng = random.Random(2026)
        killing = 0
        for i in range(300):
            k, d = 2 + i % 3, 2 + i // 3 % 2
            t = d + 2 + i // 6 % 3
            n = rng.randint(max(k + 2, 5), 7)
            cand = list(combinations(range(1, n + 1), k))
            masks = [mask_of(e) for e in cand]
            chosen = rng.sample(range(len(cand)), rng.randint(t - 1, min(9, len(cand) - 1)))
            rest = [x for x in range(len(cand)) if x not in chosen]
            live = rng.sample(rest, rng.randint(1, min(12, len(rest))))
            newest = rng.choice(chosen)
            counter = NodeCounter(10**9)
            dead = _nontrivial_kills(masks, sum(1 << j for j in chosen), newest,
                                     sum(1 << x for x in live), t, d, Meeting(masks), counter)
            assert dead == brute_force_kills(cand, chosen, newest, live, t, d), \
                (n, k, t, d, chosen, newest, live)
            assert counter.nodes >= 1
            killing += dead != 0
        assert 60 <= killing <= 240, killing

    def test_node_total_is_pinned(self):
        # the walk's ticks over the same 300 seeded states
        rng = random.Random(2026)
        nodes = 0
        for i in range(300):
            k, d = 2 + i % 3, 2 + i // 3 % 2
            t = d + 2 + i // 6 % 3
            n = rng.randint(max(k + 2, 5), 7)
            masks = [mask_of(e) for e in combinations(range(1, n + 1), k)]
            chosen = rng.sample(range(len(masks)), rng.randint(t - 1, min(9, len(masks) - 1)))
            rest = [x for x in range(len(masks)) if x not in chosen]
            live = rng.sample(rest, rng.randint(1, min(12, len(rest))))
            newest = rng.choice(chosen)
            counter = NodeCounter(10**9)
            _nontrivial_kills(masks, sum(1 << j for j in chosen), newest,
                              sum(1 << x for x in live), t, d, Meeting(masks), counter)
            nodes += counter.nodes
        assert nodes == 1574


class TestPinnedFamilies:
    # digests of the labelled families that the per-branch kernel search
    # reported for the first three larger configurations before every kind
    # moved onto the live-set search, and that the live-set search with one
    # kernel call per live candidate reported for the last three
    @pytest.mark.parametrize("n,k,t,d,size,count,digest", [
        (6, 3, 6, 2, 10, 129, "19c117fe227499f7bb3fe0e11c0187df092605d3caca04f88e27becfb0a41241"),
        (6, 3, 5, 2, 10, 3, "60573623dbd609feb2687cacddf2e1326237e3e841d4f26dc47f53d995368564"),
        (7, 3, 4, 2, 15, 3, "52a9cdc1697a727daf2afbff5d61b6dc8158dc2995f20ccdbdb739bfee0e5c5a"),
        (7, 3, 5, 2, 15, 3, "52a9cdc1697a727daf2afbff5d61b6dc8158dc2995f20ccdbdb739bfee0e5c5a"),
        (7, 4, 4, 2, 20, 4, "03745e224094340f429cda9b8e350c86dbd155fd28c18699217a2742ba72a5af"),
        (7, 4, 5, 2, 20, 4, "03745e224094340f429cda9b8e350c86dbd155fd28c18699217a2742ba72a5af"),
    ])
    def test_families_are_unchanged(self, n, k, t, d, size, count, digest):
        # read through the relabellings of the reported families that keep
        # the edge 1..k, which are the labelled families
        res = max_avoiding(n, k, ForbiddenConfig("nontrivial-intersecting", t=t, d=d))
        assert res.exact
        assert res.max_size == size
        images = labelled_images(n, k, res.families)
        assert len(images) == count
        assert hashlib.sha256(json.dumps(images).encode()).hexdigest() == digest


class TestStability:
    def test_full_star(self):
        rep = stability_scan(build_star(6, 3), 0.0)
        assert rep.vertex == 1
        assert rep.degree == 10
        assert rep.missed == 0

    def test_missed_edges_are_counted(self):
        h = Hypergraph(6, 3, list(build_star(6, 3).edges) + [(2, 3, 4)])
        rep = stability_scan(h, 0.2)
        assert rep.vertex == 1
        assert rep.size == 11
        assert rep.missed == 1

    def test_delta_threshold_is_exact(self):
        h = Hypergraph(6, 3, list(build_star(6, 3).edges) + [(2, 3, 4)])
        # bound is delta * 6^2; one missed edge
        assert stability_scan(h, 0.2, delta=0.03).within_delta is True
        assert stability_scan(h, 0.2, delta=0.02).within_delta is False
        assert stability_scan(h, 0.2).within_delta is None

    def test_ties_go_to_the_smallest_vertex(self):
        h = Hypergraph(4, 3, list(combinations(range(1, 5), 3)))
        rep = stability_scan(h, 0.0)
        assert rep.vertex == 1
        assert rep.degree == 3
        assert rep.missed == 1

    def test_family_must_be_large_enough(self):
        with pytest.raises(ParameterError):
            stability_scan(Hypergraph(6, 3, [(1, 2, 3)]), 0.0)

    def test_epsilon_one_is_refused(self):
        with pytest.raises(ParameterError, match=r"^epsilon must be in \[0, 1\), got 1.0$"):
            stability_scan(build_star(6, 3), 1.0)

    def test_negative_delta_is_refused(self):
        with pytest.raises(ParameterError, match="^delta must be nonnegative, got -0.1$"):
            stability_scan(build_star(6, 3), 0.0, delta=-0.1)

    def test_json_shape(self):
        rep = stability_scan(build_star(6, 3), 0.1, delta=0.5)
        js = rep.to_json()
        assert js["within_delta"] is True
        assert js["vertex"] == 1
        no_delta = stability_scan(build_star(6, 3), 0.1).to_json()
        assert "within_delta" not in no_delta
        assert set(js) - set(no_delta) == {"delta", "within_delta"}
