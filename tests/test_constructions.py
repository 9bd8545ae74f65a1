"""Triple systems, the lower-bound construction, and its verification."""

import hashlib
import inspect
import json
import random
import sys
from itertools import combinations
from math import comb

import pytest

from deltasys import (
    AdmissibilityError,
    ConstructionError,
    DesignSpec,
    Hypergraph,
    ParameterError,
    build_counterexample,
    build_star,
    build_triple_system,
    codegree,
    complement_triples,
    find_perfect_matching,
    max_codegree2,
    subset_degrees,
    verify_counterexample,
)
from deltasys import constructions, hypergraph


def pair_degrees(h):
    counts = {p: 0 for p in combinations(range(1, h.n + 1), 2)}
    for e in h.edges:
        for p in combinations(e, 2):
            counts[p] += 1
    return counts


class TestDesignSpec:
    def test_block_count(self):
        assert DesignSpec(7, 1).block_count == 7
        assert DesignSpec(9, 1).block_count == 12
        assert DesignSpec(13, 1).block_count == 26
        assert DesignSpec(9, 3).block_count == 36

    @pytest.mark.parametrize("n,lam", [(7, 1), (9, 1), (13, 1), (15, 1), (9, 3), (10, 2), (11, 3), (7, 2)])
    def test_admissible(self, n, lam):
        DesignSpec(n, lam)

    # (7, 6) and (9, 8) pass divisibility, but a pair lies in at most n-2
    # distinct triples
    @pytest.mark.parametrize("n,lam", [(8, 1), (10, 1), (11, 1), (12, 1), (6, 1), (8, 3), (5, 2),
                                       (7, 6), (9, 8)])
    def test_inadmissible(self, n, lam):
        with pytest.raises(AdmissibilityError):
            DesignSpec(n, lam)

    def test_degenerate_parameters(self):
        with pytest.raises(ParameterError):
            DesignSpec(2, 1)
        with pytest.raises(ParameterError):
            DesignSpec(7, 0)

    def test_order_above_the_vertex_cap_is_refused_before_building(self):
        # 129 is admissible for lam = 1, but no hypergraph may have 129 vertices
        with pytest.raises(ParameterError, match="n=129 exceeds the vertex cap 128"):
            DesignSpec(129, 1)


class TestTripleSystems:
    @pytest.mark.parametrize("n", [7, 9, 13, 15])
    def test_steiner_systems_are_pair_exact(self, n):
        h = build_triple_system(DesignSpec(n, 1))
        assert len(h) == DesignSpec(n, 1).block_count
        assert all(c == 1 for c in pair_degrees(h).values())

    @pytest.mark.parametrize("n,lam", [(9, 3), (7, 2), (10, 2)])
    def test_higher_multiplicity(self, n, lam):
        h = build_triple_system(DesignSpec(n, lam))
        assert len(h) == DesignSpec(n, lam).block_count
        assert all(c == lam for c in pair_degrees(h).values())

    def test_deterministic_per_seed(self):
        spec = DesignSpec(13, 1)
        assert build_triple_system(spec, seed=4) == build_triple_system(spec, seed=4)

    def test_star_builder(self):
        h = build_star(6, 3)
        assert len(h) == 10
        assert all(1 in e for e in h.edges)
        assert build_star(6, 3).n == 6

    def test_multiplicity_n_minus_2_is_the_complete_design(self):
        h = build_triple_system(DesignSpec(7, 5))
        assert len(h) == comb(7, 3)


def edges_digest(h):
    return hashlib.sha256(json.dumps([list(e) for e in h.edges]).encode()).hexdigest()[:16]


class TestPinnedConstructions:
    """The constructed systems and the backtrack's node cap, pinned so that a
    change to how the builders search or count shows."""

    @pytest.mark.parametrize("n,m,digest", [
        (9, 4, "9e68f22adb931b8e"), (15, 5, "ee524e8cbc6fadc2"),
        (27, 4, "f2809b0008cc25b2"), (15, 6, "9719aa1c0dc43fa4"),
    ], ids=str)
    def test_counterexamples(self, n, m, digest):
        assert edges_digest(build_counterexample(n, m, 0).system) == digest

    # (9, 1) is the lambda = 1 backtrack, (12, 2) the direct backtrack and
    # (7, 2) the stacked layers
    @pytest.mark.parametrize("n,lam,seed,digest", [
        (9, 1, 0, "019aa19e360fc699"), (9, 1, 1, "8cfa8c72b25e9a12"),
        (12, 2, 0, "e004f306e8e552ec"), (12, 2, 1, "4d9c6de0170fac31"),
        (7, 2, 0, "9db47a6c54ac4e91"), (7, 2, 1, "c668ac6d741ea223"),
    ], ids=str)
    def test_triple_systems(self, n, lam, seed, digest):
        assert edges_digest(build_triple_system(DesignSpec(n, lam), seed)) == digest

    @pytest.mark.parametrize("n,lam,seed,nodes", [(9, 1, 0, 13), (12, 2, 0, 52), (7, 2, 1, 134)],
                             ids=str)
    def test_backtrack_cap_boundary(self, n, lam, seed, nodes):
        # an attempt that needs `nodes` nodes succeeds at that cap and aborts
        # on its (cap+1)-th node one below it
        found = constructions._backtrack_triples(n, lam, random.Random(seed), node_cap=nodes)
        assert found is not None and len(found) == DesignSpec(n, lam).block_count
        assert constructions._backtrack_triples(n, lam, random.Random(seed),
                                                node_cap=nodes - 1) is None

    def test_backtrack_keeps_its_stack_off_the_call_stack(self):
        # 44 blocks placed one below the other: a frame per block would
        # overflow a limit only 30 frames above the current depth
        depth = len(inspect.stack())
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            found = constructions._backtrack_triples(12, 2, random.Random(0), node_cap=52)
        finally:
            sys.setrecursionlimit(limit)
        assert found is not None and len(found) == 44


class TestComplement:
    def test_pair_degrees_flip(self):
        h = build_triple_system(DesignSpec(9, 3))
        comp = complement_triples(h)
        assert len(comp) == 84 - 36
        # every pair sits in n-2 triples total, lam of them in the design
        assert all(c == 9 - 2 - 3 for c in pair_degrees(comp).values())

    def test_complement_of_complement(self):
        h = build_triple_system(DesignSpec(7, 1))
        assert complement_triples(complement_triples(h)) == h

    def test_only_triples_have_a_complement(self):
        with pytest.raises(ParameterError, match="^complement of triples needs k=3, got k=4$"):
            complement_triples(build_star(6, 4))


class TestPerfectMatching:
    def test_three_disjoint_triples(self):
        h = Hypergraph(9, 3, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7)])
        matching = find_perfect_matching(h)
        assert matching == ((1, 2, 3), (4, 5, 6), (7, 8, 9))

    def test_no_matching_exists(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6)])
        assert find_perfect_matching(h) is None

    def test_size_must_divide(self):
        with pytest.raises(ParameterError):
            find_perfect_matching(Hypergraph(7, 3, [(1, 2, 3)]))

    def test_pairs_too(self):
        h = Hypergraph(4, 2, [(1, 2), (3, 4), (1, 3)])
        assert find_perfect_matching(h) == ((1, 2), (3, 4))


class TestCounterexampleConstruction:
    def test_smallest_instance(self):
        rep = build_counterexample(9, 4, seed=0)
        assert rep.size == 39
        assert rep.design_size == 36
        assert rep.histogram == {3: 27, 4: 9}
        assert len(rep.matching) == 3
        h = rep.system
        assert max_codegree2(h) == 4
        assert all(c.ok for c in verify_counterexample(h, 4, mode="degree-argument").checks)
        # matching edges are the complement part: disjoint, covering [9]
        used = [v for e in rep.matching for v in e]
        assert sorted(used) == list(range(1, 10))

    def test_pair_table_of_the_family_is_built_once(self, monkeypatch):
        tabulated = []

        def counted(h, size):
            tabulated.append((len(h), size))
            return subset_degrees(h, size)

        monkeypatch.setattr(hypergraph, "subset_degrees", counted)
        rep = build_counterexample(9, 4, seed=0)
        assert tabulated.count((rep.size, 2)) == 1
        tabulated.clear()
        verify_counterexample(rep.system, 4, mode="degree-argument")
        assert tabulated == [(rep.size, 2)]

    def test_the_build_runs_no_triangle_test(self, monkeypatch):
        # the codegree claims are verify_counterexample's alone
        def refuse(*args):
            raise AssertionError("build_counterexample ran the triangle test")

        monkeypatch.setattr(constructions, "_codegree_m_triangles", refuse)
        assert build_counterexample(9, 4).size == 39

    def test_codegree_m_pairs_form_triangles(self):
        rep = build_counterexample(9, 4, seed=0)
        heavy = [
            p
            for p in combinations(range(1, 10), 2)
            if codegree(rep.system, p) == 4
        ]
        assert len(heavy) == 9
        verts = sorted({v for p in heavy for v in p})
        assert verts == list(range(1, 10))
        # each vertex meets exactly two heavy pairs: a disjoint triangle cover
        for v in verts:
            assert sum(1 for p in heavy if v in p) == 2

    def test_json_fields(self):
        rep = build_counterexample(9, 4, seed=1)
        js = rep.to_json()
        assert js["size"] == rep.size
        assert js["m"] == 4
        # the codegree claims are verify_counterexample's checks, not the build's
        assert "max_codegree" not in js
        assert "codegree_m_pairs_are_disjoint_triangles" not in js
        assert js["codegree_histogram"] == {"3": 27, "4": 9}
        assert js["matching"] is rep.matching

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            build_counterexample(8, 4)   # needs a perfect matching on [n]
        with pytest.raises(ParameterError):
            build_counterexample(9, 3)   # m starts at 4
        with pytest.raises(AdmissibilityError):
            build_counterexample(12, 4)  # no pair-exact system at lam=3

    def test_codegree_m_pairs_on_a_hexagon_close_no_triangle(self):
        # every vertex lies in two codegree-4 pairs, but they form a 6-cycle
        h = Hypergraph(6, 3, [])
        pairs = dict.fromkeys([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)], 4)
        ok, reason = constructions._codegree_m_triangles(h, pairs, 4)
        assert not ok
        assert reason == "codegree-4 pairs around vertex 1 do not close a triangle"

    # the partner count is checked at every vertex before any triangle, so
    # vertex 3's third pair is named rather than the open triangle at vertex 1
    @pytest.mark.parametrize("pairs, vertex, count", [
        ([(1, 2), (1, 3), (2, 3), (4, 5)], 4, 1),
        ([(1, 2), (1, 3), (2, 3), (3, 4)], 3, 3),
    ])
    def test_codegree_m_pairs_two_at_every_vertex(self, pairs, vertex, count):
        h = Hypergraph(6, 3, [])
        ok, reason = constructions._codegree_m_triangles(h, dict.fromkeys(pairs, 4), 4)
        assert not ok
        assert reason == f"vertex {vertex} lies in {count} codegree-4 pairs, expected 2"

    def test_larger_instance(self):
        rep = build_counterexample(15, 5, seed=0)
        assert rep.size == DesignSpec(15, 4).block_count + 5
        assert max_codegree2(rep.system) == 5
        assert all(c.ok for c in
                   verify_counterexample(rep.system, 5, mode="degree-argument").checks)


class TestVerification:
    def test_both_modes_verify_the_construction(self):
        rep = build_counterexample(9, 4, seed=0)
        ver = verify_counterexample(rep.system, 4, mode="both")
        assert ver.verdict == "verified"
        assert not ver.budget_exhausted
        names = [c.name for c in ver.checks]
        assert names == [
            "max-codegree",
            "codegree-triangles",
            "template-thresholds",
            "exhaustive-search",
        ]
        assert all(c.ok for c in ver.checks)
        assert ver.nodes > 0

    def test_degree_mode_alone_is_conditional(self):
        rep = build_counterexample(9, 4, seed=0)
        ver = verify_counterexample(rep.system, 4, mode="degree-argument")
        assert ver.verdict == "conditional"
        assert all(c.ok for c in ver.checks)
        assert all(c.claim for c in ver.checks)

    def test_dropping_a_matching_edge_refutes(self):
        rep = build_counterexample(9, 4, seed=0)
        edges = [e for e in rep.system.edges if e != rep.matching[0]]
        ver = verify_counterexample(Hypergraph(9, 3, edges), 4, mode="degree-argument")
        assert ver.verdict == "refuted"
        failed = {c.name for c in ver.checks if not c.ok}
        assert "codegree-triangles" in failed

    def test_adding_an_edge_refutes(self):
        rep = build_counterexample(9, 4, seed=0)
        pool = [
            e
            for e in combinations(range(1, 10), 3)
            if e not in set(rep.system.edges)
        ]
        bigger = Hypergraph(9, 3, list(rep.system.edges) + [pool[0]])
        ver = verify_counterexample(bigger, 4, mode="degree-argument")
        assert ver.verdict == "refuted"

    def test_star_is_not_a_counterexample(self):
        ver = verify_counterexample(build_star(9, 3), 4, mode="degree-argument")
        assert ver.verdict == "refuted"

    def test_budget_exhaustion_falls_back_to_degree_checks(self):
        rep = build_counterexample(9, 4, seed=0)
        ver = verify_counterexample(rep.system, 4, mode="exhaustive", budget=5)
        assert ver.verdict == "conditional"
        assert ver.budget_exhausted
        degree_checks = [c for c in ver.checks if c.name != "exhaustive-search"]
        assert degree_checks and all(c.ok for c in degree_checks)

    # every verdict path: counting alone passing and failing, a completed
    # search, an exhausted one falling back to counting (in exhaustive mode
    # too), and FOUND with a witness; one digest over all 48 reports and
    # their checks
    def test_verdict_grid_is_pinned(self):
        inputs = [(build_counterexample(9, 4, 0).system, 4),
                  (build_counterexample(15, 5, 0).system, 4),
                  (build_counterexample(15, 5, 0).system, 5),
                  (build_star(9, 3), 4)]
        runs = [verify_counterexample(h, m, mode, budget)
                for h, m in inputs
                for mode in ("degree-argument", "exhaustive", "both")
                for budget in (None, 1, 5, 50)]
        reports = [(r.to_json(), [c.to_json() for c in r.checks]) for r in runs]
        paths = {(r["mode"], r["verdict"], r["budget_exhausted"], "witness" in r)
                 for r, _ in reports}
        assert {v for _, v, _, _ in paths} == {"verified", "conditional", "refuted"}
        assert ("exhaustive", "refuted", True, False) in paths
        assert ("exhaustive", "refuted", False, True) in paths
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
        assert digest == "ebffa777708108233a8699391b984e4d19cf0daae7afc9fa649c306036136e90"

    def test_mode_validation(self):
        rep = build_counterexample(9, 4, seed=0)
        with pytest.raises(ParameterError):
            verify_counterexample(rep.system, 4, mode="nope")
        with pytest.raises(ParameterError):
            verify_counterexample(rep.system, 3)

    def test_json_round(self):
        rep = build_counterexample(9, 4, seed=0)
        ver = verify_counterexample(rep.system, 4, mode="both")
        js = ver.to_json()
        assert js["verdict"] == "verified"
        assert js["m"] == 4
        # the report lists the checks once, at its top level
        assert "checks" not in js

    def test_json_hands_over_the_witness(self):
        h = build_counterexample(15, 5, seed=0).system
        ver = verify_counterexample(h, 4, mode="exhaustive")
        assert ver.verdict == "refuted" and ver.witness
        assert ver.to_json()["witness"] is ver.witness
