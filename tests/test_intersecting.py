"""d-wise intersecting families, simplexes, subfamily search, classification."""

import ast
import random
import re
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from deltasys import (
    BudgetExceeded,
    FamilyWitness,
    Hypergraph,
    KMFamily,
    ParameterError,
    SearchStatus,
    TEMPLATE_TAGS,
    build_counterexample,
    build_star,
    check_km_codegree_bounds,
    check_nontrivial,
    classify_intersecting,
    find_nontrivial_subfamily,
    is_d_simplex,
    is_dwise_intersecting,
    km_codegree_bound,
    mask_of,
    max_codegree2,
    meet,
    vertices_of,
)
from deltasys import intersecting
from deltasys.hypergraph import Meeting
from deltasys.intersecting import nontrivial_search_masks
from deltasys.search import NodeCounter
from conftest import (CERTIFY_RANDOM_SHAPES, certify_random_graph, random_hypergraph,
                      reference_nontrivial_search_masks)


def h0_family(n=8):
    edges = [e for e in combinations(range(1, n + 1), 3) if len(set(e) & {1, 2, 3}) >= 2]
    return Hypergraph(n, 3, edges)


def h1_family(n=8):
    edges = [e for e in combinations(range(1, n + 1), 3) if 1 in e and set(e) & {2, 3, 4}]
    return Hypergraph(n, 3, edges + [(2, 3, 4)])


def h2_family(n=8):
    edges = [e for e in combinations(range(1, n + 1), 3) if 1 in e and set(e) & {2, 3}]
    return Hypergraph(n, 3, edges + [(2, 3, 4), (2, 3, 5), (1, 4, 5)])


def h3_family(n=8):
    edges = [(1, 2, x) for x in range(3, n + 1)]
    extra = [(1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5)]
    return Hypergraph(n, 3, edges + extra)


def h4_family(n=9):
    edges = [(1, 2, x) for x in range(3, n + 1)]
    extra = [(1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6)]
    return Hypergraph(n, 3, edges + extra)


def h5_family(n=9):
    edges = [(1, 2, x) for x in range(3, n + 1)]
    extra = [(1, 3, 4), (1, 5, 6), (1, 3, 6), (2, 3, 5), (2, 3, 6), (2, 4, 6)]
    return Hypergraph(n, 3, edges + extra)


class TestDWise:
    def test_pairwise_basics(self):
        assert is_dwise_intersecting([(1, 2, 3), (1, 4, 5), (1, 6, 7)], 2)
        assert not is_dwise_intersecting([(1, 2, 3), (4, 5, 6)], 2)

    def test_threewise_is_stricter(self):
        tri = [(1, 2), (2, 3), (1, 3)]
        assert is_dwise_intersecting(tri, 2)
        assert not is_dwise_intersecting(tri, 3)

    def test_small_families_use_all_members(self):
        # fewer than d sets: the whole family must share a vertex
        assert is_dwise_intersecting([(1, 2)], 3)
        assert is_dwise_intersecting([(1, 2), (1, 3)], 5)
        assert not is_dwise_intersecting([(1, 2), (3, 4)], 5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            is_dwise_intersecting([(1, 2), (2, 3)], 1)
        with pytest.raises(ParameterError):
            is_dwise_intersecting([], 2)

    def test_meet(self):
        assert meet([]) == -1
        assert meet([0b0111, 0b1110]) == 0b0110
        assert meet(iter([0b01, 0b10])) == 0


class TestNontrivialWitness:
    def test_triangle(self):
        fw = check_nontrivial([(1, 2), (2, 3), (1, 3)], 2)
        assert fw.intersecting and fw.nontrivial
        assert fw.common == ()

    def test_star_is_trivial(self):
        fw = check_nontrivial(build_star(5, 3).edges, 2)
        assert fw.intersecting and not fw.nontrivial
        assert fw.common == (1,)

    def test_empty_member_is_refused(self):
        with pytest.raises(ParameterError, match="^family members must be nonempty sets$"):
            check_nontrivial([(1, 2), ()], 2)

    def test_violating_tuple_reported(self):
        fw = check_nontrivial([(1, 2, 3), (4, 5, 6), (1, 4, 7)], 2)
        assert not fw.intersecting
        assert fw.violating == ((1, 2, 3), (4, 5, 6))

    def test_star_is_answered_by_one_meet(self, monkeypatch):
        # the 171-edge star of 3-sets on 20 points has C(171, 3) = 818,805
        # triples; its common vertex answers every one of them at once
        star = build_star(20, 3).edges
        assert len(star) == 171
        calls = []

        def counted(masks):
            calls.append(1)
            return meet(masks)

        monkeypatch.setattr(intersecting, "meet", counted)
        fw = check_nontrivial(star, 3)
        assert len(calls) == 1
        assert fw == FamilyWitness(tuple(sorted(star)), 3, True, (1,), False, None)

    def test_agrees_with_the_full_walk(self):
        def full_walk(fam, d):
            masks = [mask_of(e) for e in fam]
            t = min(d, len(fam))
            violating = next((sub for sub, ms in zip(combinations(fam, t), combinations(masks, t))
                              if not meet(ms)), None)
            common = vertices_of(meet(masks))
            return FamilyWitness(tuple(sorted(fam)), d, violating is None, common,
                                 violating is None and not common, violating)

        rng = random.Random(31337)
        for trial in range(300):
            n = rng.randint(3, 9)
            pool = list(combinations(range(1, n + 1), rng.randint(1, min(4, n))))
            if trial % 2:
                # stars and near-stars exercise the common-vertex shortcut
                hub = rng.randint(1, n)
                pool = [e for e in pool if hub in e] or pool
            fam = rng.sample(pool, rng.randint(1, min(len(pool), 10)))
            for d in (2, 3, 4):
                assert check_nontrivial(fam, d) == full_walk(fam, d), (fam, d)


def full_walk(fam, d):
    """check_nontrivial by meeting every min(d, |family|)-subset in turn."""
    masks = [mask_of(e) for e in fam]
    t = min(d, len(fam))
    violating = next((sub for sub, ms in zip(combinations(fam, t), combinations(masks, t))
                      if not meet(ms)), None)
    common = vertices_of(meet(masks))
    return FamilyWitness(tuple(sorted(fam)), d, violating is None, common,
                         violating is None and not common, violating)


class TestPrefixWalk:
    def test_agrees_with_the_full_walk_near_nontrivial_families(self):
        # sets holding at least d of a (d+1)-set core are d-wise intersecting
        # with no common vertex; a few stray sets put the first violator
        # anywhere in the order
        rng = random.Random(2718)
        for trial in range(3000):
            d = rng.choice((2, 3, 4))
            n = rng.randint(d + 2, 9)
            k = rng.randint(d, min(n - 1, d + 2))
            core = set(rng.sample(range(1, n + 1), d + 1))
            pool = list(combinations(range(1, n + 1), k))
            near = [e for e in pool if len(core.intersection(e)) >= d]
            fam = rng.sample(near, rng.randint(1, min(len(near), 12)))
            stray = [e for e in pool if e not in fam]
            for _ in range(min(len(stray), rng.choice((0, 0, 1, 2)))):
                fam.insert(rng.randint(0, len(fam)), stray.pop(rng.randrange(len(stray))))
            assert check_nontrivial(fam, d) == full_walk(fam, d), (fam, d)

    def test_225_member_family_is_fast(self):
        # the 4-sets on 60 points holding at least three of 1..4: 3-wise
        # intersecting, no common vertex, 1,873,200 triples for a full walk
        fam = [e for e in combinations(range(1, 61), 4) if len({1, 2, 3, 4}.intersection(e)) >= 3]
        assert len(fam) == 225
        started = time.perf_counter()
        fw = check_nontrivial(fam, 3)
        seconds = time.perf_counter() - started
        assert fw.intersecting and fw.nontrivial and fw.violating is None
        assert not check_nontrivial(fam, 4).intersecting
        assert seconds < 0.5, seconds

    def test_a_counter_ticks_once_per_prefix(self):
        fam = [e for e in combinations(range(1, 61), 4) if len({1, 2, 3, 4}.intersection(e)) >= 3]
        counter = NodeCounter(10**6)
        assert check_nontrivial(fam, 3, counter) == check_nontrivial(fam, 3)
        assert counter.nodes == 225 * 224 // 2
        with pytest.raises(BudgetExceeded):
            check_nontrivial(fam, 3, NodeCounter(100))
        # the walk stops at its violator, which the counter does not move
        rng = random.Random(1618)
        for _ in range(200):
            fam = rng.sample(list(combinations(range(1, 8), 3)), rng.randint(2, 9))
            d = rng.choice((2, 3))
            counter = NodeCounter(10**6)
            assert check_nontrivial(fam, d, counter) == full_walk(fam, d), (fam, d)
            if meet(mask_of(e) for e in fam):
                assert counter.nodes == 0


class TestSimplex:
    def test_triangle_is_a_2_simplex(self):
        assert is_d_simplex([(1, 2), (2, 3), (1, 3)])
        assert is_d_simplex([(1, 2), (2, 3), (1, 3)], 2)

    def test_d_defaults_to_size_minus_one(self):
        quad = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        assert is_d_simplex(quad)
        # {(1,2,4),(1,3,4),(2,3,5)} has empty intersection, so not 3-wise
        assert not is_d_simplex(quad[:3] + [(2, 3, 5)])

    def test_disjoint_pair_is_a_1_simplex(self):
        assert is_d_simplex([(1, 2), (3, 4)], 1)
        assert not is_d_simplex([(1, 2), (2, 3)], 1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            is_d_simplex([(1, 2)], 0)
        with pytest.raises(ParameterError):
            is_d_simplex([(1, 2), (2, 3)], 2)
        with pytest.raises(ParameterError):
            is_d_simplex([(1, 2), (2, 1), (1, 3)], 2)

    def test_matches_nontrivial_check_on_triples(self):
        rng = random.Random(77)
        for _ in range(20):
            h = random_hypergraph(rng, n=7, k=3, max_edges=10)
            for d in (2, 3):
                for sub in combinations(h.edges, d + 1):
                    fw = check_nontrivial(sub, d)
                    assert is_d_simplex(sub, d) == fw.nontrivial


def first_nontrivial(edges, t, d):
    """Brute-force oracle: the first nontrivial t-subset in combinations order."""
    for sub in combinations(edges, t):
        if check_nontrivial(sub, d).nontrivial:
            return sub
    return None


class TestSubfamilySearch:
    def test_finds_lex_first_triangle(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (1, 2, 4), (3, 4, 5), (1, 2, 5), (2, 3, 6)])
        out = find_nontrivial_subfamily(h, 3, 2)
        assert out.found
        assert out.witness == ((1, 2, 3), (1, 2, 4), (3, 4, 5))

    def test_star_never_contains_one(self):
        out = find_nontrivial_subfamily(build_star(8, 3), 4, 2)
        assert out.status is SearchStatus.NONE

    def test_at_most_one_member_is_never_nontrivial(self):
        # two disjoint members share no vertex, but a family of at most one
        # of them is not nontrivial: None without a node; t = 2 asks whether
        # the two intersect, which takes the root's node
        for t in (0, 1):
            counter = NodeCounter(1000)
            assert nontrivial_search_masks([0b011, 0b100], t, 2, counter) is None
            assert counter.nodes == 0
        counter = NodeCounter(1000)
        assert nontrivial_search_masks([0b011, 0b100], 2, 2, counter) is None
        assert counter.nodes == 1

    def test_against_exhaustive_enumeration(self):
        # 420 seeded instances, 350 with d in {2, 3} and 70 with d = 4, less
        # the few too small for t. The oracle's combinations order is lex
        # order over h.edges, so it also pins the lex-first witness.
        rng = random.Random(2020)
        found = {True: 0, False: 0}
        for i in range(420):
            d = 4 if i % 6 == 5 else 2 + i % 2
            n = rng.randint(5, 8)
            t = rng.randint(d + 1, d + 3)
            pool = list(combinations(range(1, n + 1), rng.randint(d, min(4, n - 1))))
            if len(pool) < t:
                continue
            h = Hypergraph(n, len(pool[0]), rng.sample(pool, rng.randint(t, min(len(pool), 12))))
            expected = first_nontrivial(h.edges, t, d)
            out = find_nontrivial_subfamily(h, t, d)
            assert out.witness == expected, (h.edges, t, d)
            assert out.status is (SearchStatus.FOUND if expected else SearchStatus.NONE)
            found[expected is not None] += 1
            # the draw keeps the seeded instances as they were
            rng.randrange(len(h.edges))
        assert sum(found.values()) >= 400 and min(found.values()) >= 100, found

    def test_whole_templates_are_found(self):
        # the family is the only candidate set, so the colouring bound is
        # tight: one colour class per member still to pick
        for h in (h0_family(), h1_family(), h2_family(), h3_family(), h4_family(), h5_family()):
            out = find_nontrivial_subfamily(h, len(h.edges), 2)
            assert out.witness == h.edges
            assert find_nontrivial_subfamily(h, len(h.edges) + 1, 2).status is SearchStatus.NONE

    def test_star_costs_one_node(self):
        # the root's common-vertex check settles a star without branching
        h = build_star(7, 3)
        counter = NodeCounter(10)
        assert nontrivial_search_masks(h.edge_masks, 3, 2, counter) is None
        assert counter.nodes == 1

    def test_a_root_child_with_too_few_candidates_takes_no_node(self):
        # (1,2,3) meets no later member, so the root skips it untouched; the
        # nodes are the root, the step at (4,5,6) and its in-place last pick
        h = Hypergraph(9, 3, [(1, 2, 3), (4, 5, 6), (4, 7, 8), (5, 7, 9)])
        counter = NodeCounter()
        hit = nontrivial_search_masks(h.edge_masks, 3, 2, counter)
        assert [h.edges[i] for i in hit] == [(4, 5, 6), (4, 7, 8), (5, 7, 9)]
        assert counter.nodes == 3

    def test_budget_exhaustion(self):
        h = Hypergraph(9, 3, list(combinations(range(1, 9), 3))[:30])
        out = find_nontrivial_subfamily(h, 5, 2, budget=3)
        assert out.status is SearchStatus.BUDGET
        assert out.witness is None
        assert out.nodes <= 4  # the aborting tick is counted

    def test_environment_sets_no_budget(self, monkeypatch):
        # a budget of 3 would cut this search short; the variable that once
        # set the default budget must leave the outcome as it is unset
        h = Hypergraph(9, 3, list(combinations(range(1, 9), 3))[:30])
        monkeypatch.delenv("DELTASYS_NODE_BUDGET", raising=False)
        unset = find_nontrivial_subfamily(h, 5, 2)
        assert unset.status is not SearchStatus.BUDGET
        assert find_nontrivial_subfamily(h, 5, 2, budget=3).status is SearchStatus.BUDGET
        monkeypatch.setenv("DELTASYS_NODE_BUDGET", "3")
        assert find_nontrivial_subfamily(h, 5, 2) == unset
        assert NodeCounter().limit == 10**8
        for bad in (0, -1):
            with pytest.raises(ParameterError):
                NodeCounter(bad)

    def test_no_module_reads_the_environment(self):
        src = Path(intersecting.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert not names & {"environ", "environb", "getenv"}, path.name

    def test_check_verdicts_are_written_in_one_routine(self):
        # a named check's "pass"/"fail" is spelled only by `Check.to_json`
        src = Path(intersecting.__file__).parent
        seen = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for func in cls.body:
                        if isinstance(func, ast.FunctionDef):
                            owner.update((id(node), f"{cls.name}.{func.name}")
                                         for node in ast.walk(func))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and node.value == "pass":
                    seen.append((path.name, owner.get(id(node))))
        assert seen == [("search.py", "Check.to_json")]

    def test_integer_parameters_are_checked_in_one_routine(self):
        allowed = {"check_int"}
        src = Path(intersecting.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # the innermost function around each node: inner ones come later
            owner = {}
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner.update((id(node), func.name) for node in ast.walk(func))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                        and any(getattr(n, "id", None) == "int" for n in ast.walk(node.args[1]))):
                    assert owner.get(id(node)) in allowed, (path.name, node.lineno)

    def test_validation(self):
        h = build_star(5, 3)
        with pytest.raises(ParameterError):
            find_nontrivial_subfamily(h, 2, 2)
        with pytest.raises(ParameterError):
            find_nontrivial_subfamily(h, 3, 1)


def certify_job_inputs():
    """The inputs of the benchmark's seven `certify` jobs at seed 0, as
    (name, h, t, d): cx(n, m) searched at t = 3m+1, cx(15,5) also at m = 4,
    and two seeded random graphs searched with d = 3."""
    cx = {(n, m): build_counterexample(n, m, seed=0).system
          for n, m in ((9, 4), (15, 5), (27, 4), (15, 6))}
    jobs = [(f"cx-{n}-{m}", h, 3 * m + 1, 2) for (n, m), h in cx.items()]
    jobs.append(("cx-15-5-m4", cx[15, 5], 13, 2))
    for name, (n, k, size, t, d, salt) in CERTIFY_RANDOM_SHAPES.items():
        jobs.append((name, certify_random_graph(n, k, size, 0, salt), t, d))
    return jobs


def pinned_found_instance(name, seed):
    """(h, t, d) of a certify job that finds a family, at another seed:
    cx(15, 5) searched at m = 4, or the nontrivial-4g random graph."""
    if name == "cx-15-5-m4":
        return build_counterexample(15, 5, seed=seed).system, 13, 2
    n, k, size, t, d, salt = CERTIFY_RANDOM_SHAPES[name]
    return certify_random_graph(n, k, size, seed, salt), t, d


def seeded_grid_instances():
    """200 seeded (h, t, d) with 30 to 120 members on 9 to 12 points."""
    rng = random.Random(1616)
    for _ in range(200):
        n, k = rng.randint(9, 12), rng.choice((3, 4))
        d = rng.randint(2, 4)
        t = rng.randint(d + 1, d + 5)
        pool = list(combinations(range(1, n + 1), k))
        yield Hypergraph(n, k, rng.sample(pool, rng.randint(30, min(120, len(pool))))), t, d


def three_sizes_instances():
    """100 seeded (h, t, d) for each t = d+1..d+3 and d in {2, 3, 4}; members
    of 3 to n-3 vertices give every cell both FOUND and NONE instances."""
    rng = random.Random(1717)
    for d in (2, 3, 4):
        for t in range(d + 1, d + 4):
            for _ in range(100):
                n = rng.randint(7, 10)
                k = rng.randint(3, n - 3)
                pool = list(combinations(range(1, n + 1), k))
                yield Hypergraph(n, k, rng.sample(pool, rng.randint(t, min(60, len(pool))))), t, d


class TestKernelAgainstItsPredecessor:
    """`nontrivial_search_masks` against the kernel it replaced, on instances
    beyond brute-force reach: the same status and the same witness."""

    def test_seeded_grid(self):
        found = {True: 0, False: 0}
        for h, t, d in seeded_grid_instances():
            hit = nontrivial_search_masks(h.edge_masks, t, d, NodeCounter())
            expected = reference_nontrivial_search_masks(h.edge_masks, t, d, NodeCounter())
            assert hit == expected, (h.edges, t, d)
            found[hit is not None] += 1
        assert min(found.values()) >= 50, found

    def test_three_sizes_above_each_wise(self):
        found = {}
        for h, t, d in three_sizes_instances():
            hit = nontrivial_search_masks(h.edge_masks, t, d, NodeCounter())
            expected = reference_nontrivial_search_masks(h.edge_masks, t, d, NodeCounter())
            assert hit == expected, (h.edges, t, d)
            key = d, t, hit is not None
            found[key] = found.get(key, 0) + 1
        assert sum(c for (_, _, hit), c in found.items() if hit) >= 500, found
        assert len(found) == 18, found

    def test_benchmark_random_graphs_over_thirty_seeds(self):
        for n, k, size, t, d, salt in CERTIFY_RANDOM_SHAPES.values():
            for seed in range(30):
                h = certify_random_graph(n, k, size, seed, salt)
                hit = nontrivial_search_masks(h.edge_masks, t, d, NodeCounter())
                expected = reference_nontrivial_search_masks(h.edge_masks, t, d, NodeCounter())
                assert hit == expected, (n, k, seed)

    def test_picks_after_the_core_keep_every_three_fold_meet(self):
        # pairwise intersecting with no common vertex, but (1,2,3,4),
        # (1,2,5,6) and (3,4,5,6) share no vertex; the core ends before the
        # last two are picked, so only the compatibility step can refuse them
        h = Hypergraph(6, 4, [(1, 2, 3, 4), (1, 2, 4, 6), (1, 2, 5, 6), (1, 3, 4, 6),
                              (2, 3, 5, 6), (3, 4, 5, 6)])
        assert find_nontrivial_subfamily(h, 6, 2).witness == h.edges
        for kernel in (nontrivial_search_masks, reference_nontrivial_search_masks):
            assert kernel(h.edge_masks, 6, 3, NodeCounter()) is None

    def test_counterexamples(self):
        for n, m in ((9, 4), (15, 5), (21, 4)):
            h = build_counterexample(n, m, seed=0).system
            for kernel in (nontrivial_search_masks, reference_nontrivial_search_masks):
                assert kernel(h.edge_masks, 3 * m + 1, 2, NodeCounter()) is None, (n, m)
        h = build_counterexample(15, 5, seed=0).system
        hit = nontrivial_search_masks(h.edge_masks, 13, 2, NodeCounter())
        assert hit is not None
        assert hit == reference_nontrivial_search_masks(h.edge_masks, 13, 2, NodeCounter())
        assert check_nontrivial([h.edges[i] for i in hit], 2).nontrivial


class _FrameCounter(NodeCounter):
    """A counter that keeps the frame of every tick. A node ticks once as it
    enters, and a root position ticks only for its children, so a frame that
    ticks again is reading a child's last member in place."""

    def __init__(self, limit=None):
        super().__init__(limit)
        self.frames = []

    def tick(self):
        self.frames.append(sys._getframe(1))
        super().tick()

    def last_tick_in_place(self):
        return any(f is self.frames[-1] for f in self.frames[:-1])


class TestLastPick:
    """The last member is read from the holder bitsets: the lowest candidate
    that misses every common vertex. It takes no node."""

    # the 3-subsets of 1..4: any three of them share a vertex
    K4 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_a_candidate_holding_another_common_vertex_is_skipped(self):
        # (1,2,3) branches through (2,3,4), the one member missing 1, which
        # leaves 2 and 3 common; of the candidates left, (1,3,4) misses 2,
        # the vertex the fewest of them miss, but holds 3, and (1,2,4) holds 2
        h = Hypergraph(4, 3, self.K4)
        assert nontrivial_search_masks(h.edge_masks, 3, 2, NodeCounter()) is None
        # (1,4,5) misses both, so it is the last member
        h = Hypergraph(5, 3, self.K4 + [(1, 4, 5)])
        hit = nontrivial_search_masks(h.edge_masks, 3, 2, NodeCounter())
        assert [h.edges[i] for i in hit] == [(1, 2, 3), (1, 4, 5), (2, 3, 4)]

    def test_budget_boundary_on_a_found_search(self):
        # a budget of exactly the node count finds the witness; one less
        # runs out, and the aborting tick is counted. The last tick reads a
        # child's last member in place: on nontrivial-4g at position t-2 of
        # the rebuild, on cx-15-5-m4 at seed 3 in a node's loop
        for name, seed in (("nontrivial-4g", 0), ("cx-15-5-m4", 3)):
            h, t, d = pinned_found_instance(name, seed)
            counter = _FrameCounter()
            nontrivial_search_masks(h.edge_masks, t, d, counter=counter)
            assert counter.last_tick_in_place(), name
            out = find_nontrivial_subfamily(h, t, d)
            assert out.found and out.nodes == counter.nodes
            assert find_nontrivial_subfamily(h, t, d, budget=out.nodes) == out
            cut = find_nontrivial_subfamily(h, t, d, budget=out.nodes - 1)
            assert cut.status is SearchStatus.BUDGET and cut.witness is None
            assert cut.nodes == out.nodes


class TestColouringStop:
    """The colouring bound stops as soon as the classes so far plus the
    candidates still uncoloured fall short of the members left to pick. It
    prunes exactly where colouring every candidate would."""

    FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]

    def test_the_fano_plane_reaches_the_bound_exactly(self):
        # its lines pairwise meet, so each class holds one candidate; at
        # t = 7 every colouring has exactly as many candidates as members
        # left to pick (4 of 4, then 3 of 3), so the sum never falls short
        h = Hypergraph(7, 3, self.FANO)
        for t in (7, 6):
            counter = NodeCounter()
            assert nontrivial_search_masks(h.edge_masks, t, 2, counter) == tuple(range(t))
            assert counter.nodes == t

    def test_a_stop_at_the_first_class_boundary(self):
        # after the core (1,2,4), (2,5,6), (1,3,5), three members are left to
        # pick from (1,2,5), (1,2,6) and (3,4,6); the first class takes
        # (1,2,5) and (3,4,6), and 1 + 1 uncoloured < 3; status and nodes are
        # those of colouring every candidate
        h = Hypergraph(6, 3, [(1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 5), (2, 5, 6),
                              (3, 4, 6)])
        counter = NodeCounter()
        assert nontrivial_search_masks(h.edge_masks, 6, 2, counter) is None
        assert counter.nodes == 4


class TestNodeCounts:
    def test_certify_node_counts_are_pinned(self):
        # seed-0 nodes and statuses of the benchmark's certify jobs; a kernel
        # change that moves them updates this table on purpose
        pinned = {"cx-9-4": (301, False), "cx-15-5": (4_975, False),
                  "cx-27-4": (16_425, False), "cx-15-6": (9_251, False),
                  "cx-15-5-m4": (17, True), "nontrivial-3g": (703, False),
                  "nontrivial-4g": (367, True)}
        nodes = {}
        for name, h, t, d in certify_job_inputs():
            out = find_nontrivial_subfamily(h, t, d)
            nodes[name] = out.nodes, out.found
        assert nodes == pinned

    def test_differential_grid_node_totals_are_pinned(self):
        # the kernel's nodes summed over the differential tests' seeded
        # instances, so that a faster kernel keeps every prune decision
        # beyond the seven benchmark jobs too
        for instances, pinned in ((seeded_grid_instances, 210_071),
                                  (three_sizes_instances, 108_045)):
            total = 0
            for h, t, d in instances():
                counter = NodeCounter()
                nontrivial_search_masks(h.edge_masks, t, d, counter=counter)
                total += counter.nodes
            assert total == pinned, instances.__name__

    def test_counterexample_21_4_nodes_are_pinned(self):
        out = find_nontrivial_subfamily(build_counterexample(21, 4, seed=0).system, 13, 2)
        assert (out.status, out.nodes) == (SearchStatus.NONE, 7_207)

    def test_found_witnesses_are_pinned_over_five_seeds(self):
        # (nodes, lex-first witness over the member list) at seeds 0-4 of the
        # two certify shapes that find a family
        pinned = {
            "nontrivial-4g": {0: (367, (0, 1, 2, 7, 25, 80)), 1: (373, (0, 1, 2, 7, 27, 80)),
                              2: (370, (0, 1, 2, 7, 28, 80)), 3: (365, (0, 1, 2, 7, 27, 79)),
                              4: (365, (0, 1, 2, 7, 27, 79))},
            "cx-15-5-m4": {0: (17, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 29)),
                           1: (29, (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 21, 24, 31)),
                           2: (20, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 30)),
                           3: (13, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 29)),
                           4: (33, (0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 26, 28, 32))},
        }
        got = {}
        for name in pinned:
            got[name] = {}
            for seed in range(5):
                h, t, d = pinned_found_instance(name, seed)
                counter = NodeCounter()
                hit = nontrivial_search_masks(h.edge_masks, t, d, counter=counter)
                got[name][seed] = counter.nodes, hit
                assert check_nontrivial([h.edges[i] for i in hit], d).nontrivial
        assert got == pinned

    def test_every_kernel_call_passes_its_counter_by_name(self):
        # the benchmark's tracer reads a traced kernel's nodes from its
        # `counter` keyword argument
        calls = []
        for path in sorted(Path(intersecting.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call) and "nontrivial_search_masks" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    calls.append((path.name, node.lineno,
                                  any(kw.arg == "counter" for kw in node.keywords)))
        assert calls and all(by_name for _, _, by_name in calls), calls


class TestClassification:
    def test_each_template_is_recognized(self):
        cases = [
            (build_star(7, 3), "EKR"),
            (h0_family(), "H0"),
            (h1_family(), "H1"),
            (h2_family(), "H2"),
            (h3_family(), "H3"),
            (h4_family(), "H4"),
            (h5_family(), "H5"),
        ]
        for h, tag in cases:
            km = classify_intersecting(h)
            assert km.tag == tag, (tag, km)
            assert km.contains_family(h)

    def test_relabeling_is_tracked_by_the_mapping(self):
        rng = random.Random(5)
        base = h2_family()
        for _ in range(6):
            perm = list(range(1, 9))
            rng.shuffle(perm)
            relabel = {v: perm[v - 1] for v in range(1, 9)}
            moved = Hypergraph(
                8, 3, [tuple(sorted(relabel[v] for v in e)) for e in base.edges]
            )
            km = classify_intersecting(moved)
            assert km.tag == "H2"
            assert km.contains_family(moved)
            assert km.mapping[1] == relabel[1]

    def test_classified_subfamilies_stay_inside_some_template(self):
        rng = random.Random(31)
        for big in (h0_family(), h2_family(), h3_family(), h4_family()):
            for _ in range(8):
                size = rng.randint(11, len(big.edges))
                sub = Hypergraph(big.n, 3, rng.sample(big.edges, size))
                km = classify_intersecting(sub)
                assert km.contains_family(sub)

    def test_templates_map_their_core_onto_themselves(self):
        for h, tag in zip(TEMPLATES, TEMPLATE_TAGS):
            km = classify_intersecting(h)
            c = intersecting._CORE_SIZE[tag]
            assert (km.tag, km.mapping) == (tag, {i: i for i in range(1, c + 1)})

    def test_templates_on_80_points_are_fast(self):
        # the star has 3,081 members; a disjoint-pair check over every pair
        # of them took about 0.2 s on its own
        for h in (build_star(80, 3), h0_family(80), h1_family(80), h2_family(80),
                  h3_family(80), h4_family(80), h5_family(80)):
            started = time.perf_counter()
            km = classify_intersecting(h)
            seconds = time.perf_counter() - started
            assert km.contains_family(h)
            assert seconds < 0.1, (km.tag, seconds)

    def test_the_fano_plane_has_no_core_map(self):
        # the exhaustive search that valid input (11 members or more) does not reach
        for tag in TEMPLATE_TAGS:
            assert intersecting._core_map(FANO, tag, Meeting(FANO.edge_masks).holders) is None, tag

    def test_labels_go_on_the_lowest_unheld_vertices_too(self):
        # (2, 4, 6) holds at most three labels; the rest go on 1, 3 and 5,
        # each tried in ascending order among the member's own vertices
        h = Hypergraph(6, 3, [(2, 4, 6)])
        holders = Meeting(h.edge_masks).holders
        assert [intersecting._core_map(h, tag, holders) for tag in TEMPLATE_TAGS] == [
            {1: 2},
            {1: 1, 2: 2, 3: 4},
            {1: 1, 2: 2, 3: 4, 4: 6},
            {1: 1, 2: 2, 3: 4, 4: 3, 5: 6},
            {1: 1, 2: 2, 3: 3, 4: 4, 5: 6},
            {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
            {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
        ]

    def test_star_with_fewer_vertices_is_still_ekr(self):
        km = classify_intersecting(Hypergraph(12, 3, [(2, x, y) for x, y in combinations(range(3, 9), 2)]))
        assert km.tag == "EKR"
        assert km.mapping[1] == 2

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            classify_intersecting(build_star(8, 4))  # not triples
        with pytest.raises(ParameterError):
            classify_intersecting(Hypergraph(5, 3, list(combinations(range(1, 6), 3))))  # only 10 members
        big_not_intersecting = Hypergraph(
            9, 3, [(1, 2, x) for x in range(3, 9)] + [(1, 3, x) for x in range(4, 9)] + [(4, 5, 6), (7, 8, 9)]
        )
        with pytest.raises(ParameterError, match=r"^family is not intersecting: "
                           r"\(1, 2, 3\) and \(4, 5, 6\) are disjoint$"):
            classify_intersecting(big_not_intersecting)

    def test_the_disjoint_pair_named_is_the_first_in_combinations_order(self):
        # a star on a random hub with one to three triples that avoid the
        # hub mixed in, so the first disjoint pair falls anywhere in the order
        rng = random.Random(4711)
        for _ in range(60):
            n = rng.randint(8, 10)
            hub = rng.randint(1, n)
            star = [e for e in combinations(range(1, n + 1), 3) if hub in e]
            rest = [e for e in combinations(range(1, n + 1), 3) if hub not in e]
            h = Hypergraph(n, 3, rng.sample(star, rng.randint(11, 20)) + rng.sample(rest, rng.randint(1, 3)))
            first, second = check_nontrivial(h.edges, 2).violating
            with pytest.raises(ParameterError, match=re.escape(f"{first} and {second} are disjoint")):
                classify_intersecting(h)


def template_label_sets(tag):
    """The sets of core labels that a member of template `tag` may carry.

    Whether a triple lies in a template depends only on which core labels its
    vertices carry, so each label set is read off the identity map, padded
    with vertices outside the core.
    """
    c = intersecting._CORE_SIZE[tag]
    ident = KMFamily(tag, {i: i for i in range(1, c + 1)})
    return [frozenset(s) for r in range(4) for s in combinations(range(1, c + 1), r)
            if ident.contains_edge(s + tuple(range(c + 1, c + 4 - r)))]


def brute_force_classify(h):
    """The first template in TEMPLATE_TAGS order that contains `h` under some
    core map, as a KMFamily, or None.

    Core labels 1..c are mapped in turn to the family's vertices or to fresh
    vertices outside it. Fresh vertices are interchangeable, so a label only
    takes the next unused one. A partial map is pruned as soon as some member
    can no longer lie in the template: no set of the labels still to come, one
    per unmapped vertex at most, completes its labels to an allowed set. A
    fully mapped member outside the template is the case with no label to
    come. Every map that survives is tested with `contains_family`.
    """
    verts = sorted(set().union(*h.edges))
    fresh = max(h.n, verts[-1]) + 1
    for tag in TEMPLATE_TAGS:
        c = intersecting._CORE_SIZE[tag]
        allowed = template_label_sets(tag)
        label, mapping = {}, {}

        def viable(j):
            placed = frozenset(range(1, j + 1))
            for e in h.edges:
                have = frozenset(label[v] for v in e if v in label)
                free = sum(v not in label for v in e)
                if not any(a & placed == have and len(a - placed) <= free for a in allowed):
                    return False
            return True

        def extend(j, fresh_used):
            if j > c:
                km = KMFamily(tag, mapping)
                return km if km.contains_family(h) else None
            for v in [v for v in verts if v not in label] + [fresh + fresh_used]:
                mapping[j] = v
                if v < fresh:
                    label[v] = j
                if viable(j):
                    km = extend(j + 1, fresh_used + (v >= fresh))
                    if km is not None:
                        return km
                label.pop(v, None)
            del mapping[j]
            return None

        km = extend(1, 0)
        if km is not None:
            return km
    return None


TEMPLATES = (build_star(7, 3), h0_family(), h1_family(), h2_family(),
             h3_family(), h4_family(), h5_family())

FANO = Hypergraph(7, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
                         (2, 5, 7), (3, 4, 7), (3, 5, 6)])


def relabelled(h, n, rng):
    """`h` moved onto n points by a seeded injective relabelling."""
    perm = rng.sample(range(1, n + 1), h.n)
    return Hypergraph(n, 3, [tuple(sorted(perm[v - 1] for v in e)) for e in h.edges])


def greedy_intersecting(pool, rng):
    """Shuffle `pool` and keep each triple that meets every one kept before."""
    rng.shuffle(pool)
    edges = []
    for e in pool:
        if all(set(e) & set(f) for f in edges):
            edges.append(e)
    return edges


def oracle_families():
    """The 70 seeded families the classification oracle is run on: the seven
    templates, relabellings and subfamilies of them, and greedy maximal
    intersecting families on 8 vertices grown without a template."""
    rng = random.Random(2718)
    families = list(TEMPLATES)
    for h in TEMPLATES:
        for _ in range(3):
            families.append(relabelled(h, 12, rng))
    for h in (build_star(8, 3), h0_family(), h1_family(), h2_family(),
              h3_family(), h4_family(8), h5_family(8)):
        for _ in range(4):
            families.append(Hypergraph(8, 3, rng.sample(h.edges, rng.randint(11, len(h.edges)))))
    pool = list(combinations(range(1, 9), 3))
    while len(families) < 70:
        edges = greedy_intersecting(pool, rng)
        if len(edges) >= 11:
            families.append(Hypergraph(8, 3, edges))
    return families


def wider_oracle_families():
    """The oracle's 70 families, the seven templates on 20 points relabelled,
    and twelve greedy maximal intersecting families of at least 11 members on
    each of 9..12 vertices."""
    rng = random.Random(1414)
    families = oracle_families()
    for h in (build_star(20, 3), h0_family(20), h1_family(20), h2_family(20),
              h3_family(20), h4_family(20), h5_family(20)):
        families.append(relabelled(h, 20, rng))
    for n in range(9, 13):
        pool = list(combinations(range(1, n + 1), 3))
        grown = 0
        while grown < 12:
            edges = greedy_intersecting(pool, rng)
            if len(edges) >= 11:
                families.append(Hypergraph(n, 3, edges))
                grown += 1
    return families


class TestClassificationOracle:
    def test_oracle_tells_the_templates_apart(self):
        assert [brute_force_classify(h).tag for h in TEMPLATES] == list(TEMPLATE_TAGS)
        assert brute_force_classify(FANO) is None

    def test_classify_matches_the_oracle(self):
        families = wider_oracle_families()
        seen = set()
        for h in families:
            expected = brute_force_classify(h)
            assert expected is not None, h.edges
            km = classify_intersecting(h)
            assert km.tag == expected.tag, (expected, km, h.edges)
            assert km.contains_family(h)
            seen.add(km.tag)
        assert seen == set(TEMPLATE_TAGS)


# Each template written out as the rule it was first coded by: a main part
# read off the core labels a triple carries, plus exceptional triples of
# core vertices.
REFERENCE_EXCEPTIONAL = {
    "EKR": (),
    "H0": (),
    "H1": ((2, 3, 4),),
    "H2": ((2, 3, 4), (2, 3, 5), (1, 4, 5)),
    "H3": ((1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5)),
    "H4": ((1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6)),
    "H5": ((1, 3, 4), (1, 5, 6), (1, 3, 6), (2, 3, 5), (2, 3, 6), (2, 4, 6)),
}


def reference_main_member(tag, core):
    if tag == "EKR":
        return 1 in core
    if tag == "H0":
        return len(core & {1, 2, 3}) >= 2
    if tag == "H1":
        return 1 in core and bool(core & {2, 3, 4})
    if tag == "H2":
        return 1 in core and bool(core & {2, 3})
    return {1, 2} <= core


def reference_contains_edge(km, edge):
    """Template membership by the main-part rule and the exceptional
    triples, rebuilding the inverse core map on every call."""
    e = set(edge)
    inverse = {v: c for c, v in km.mapping.items()}
    core = frozenset(inverse[v] for v in e if v in inverse)
    if reference_main_member(km.tag, core):
        return True
    return frozenset(e) in frozenset(frozenset(km.mapping[c] for c in trip)
                                     for trip in REFERENCE_EXCEPTIONAL[km.tag])


class TestTemplateMembership:
    def test_every_label_set_follows_the_written_rule(self):
        # a triple's membership depends only on the core labels it carries;
        # each label set of size 3 or less, padded with vertices off the core
        for tag in TEMPLATE_TAGS:
            c = intersecting._CORE_SIZE[tag]
            ident = KMFamily(tag, {i: i for i in range(1, c + 1)})
            for r in range(4):
                for s in combinations(range(1, c + 1), r):
                    e = s + tuple(range(c + 1, c + 4 - r))
                    assert ident.contains_edge(e) == reference_contains_edge(ident, e), (tag, s)

    def test_answers_match_the_per_call_rebuild(self):
        # the oracle's families (the seven templates first), each under its
        # own classification and two seeded core maps per tag onto its
        # vertices; every triple on 1..n for the templates, the members else
        rng = random.Random(307)
        answers = {True: 0, False: 0}
        for h in oracle_families():
            verts = sorted(set().union(*h.edges))
            maps = [classify_intersecting(h)]
            for tag in TEMPLATE_TAGS:
                for _ in range(2):
                    images = rng.sample(verts, intersecting._CORE_SIZE[tag])
                    maps.append(KMFamily(tag, dict(enumerate(images, 1))))
            triples = list(combinations(range(1, h.n + 1), 3)) if h in TEMPLATES else h.edges
            for km in maps:
                for e in triples:
                    assert km.contains_edge(e) == reference_contains_edge(km, e), (km, e)
                held = km.contains_family(h)
                assert held == all(reference_contains_edge(km, e) for e in h.edges), km
                answers[held] += 1
        assert min(answers.values()) >= 70, answers


    @pytest.mark.parametrize("tag,mapping,reason", [
        ("H9", {1: 1}, "unknown template tag"),
        ("H0", {1: 1, 2: 2}, "needs core labels 1..3"),
        ("H0", {1: 1, 2: 2, 3: 1}, "injective"),
    ])
    def test_bad_families_are_refused(self, tag, mapping, reason):
        with pytest.raises(ParameterError, match=reason):
            KMFamily(tag, mapping)

    def test_only_triples_are_classified(self):
        with pytest.raises(ParameterError, match="templates classify triples"):
            KMFamily("EKR", {1: 1}).contains_edge((1, 2))


class TestCodegreeBounds:
    def test_family_outside_the_template_is_refused(self):
        # the star template on vertex 1 holds no triple avoiding 1
        h = Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4)])
        with pytest.raises(ParameterError, match="not contained in the given template"):
            check_km_codegree_bounds(h, KMFamily("EKR", {1: 1}))

    def test_threshold_table(self):
        assert km_codegree_bound("H0", 12) == 4
        assert km_codegree_bound("H2", 12) == 5
        assert km_codegree_bound("H3", 12) == 6
        assert km_codegree_bound("H4", 20) == 14
        assert km_codegree_bound("H5", 11) == 5

    def test_no_bound_for_star_like_templates(self):
        with pytest.raises(ParameterError):
            km_codegree_bound("EKR", 12)
        with pytest.raises(ParameterError):
            km_codegree_bound("H1", 12)
        with pytest.raises(ParameterError):
            km_codegree_bound("bogus", 12)

    def test_bounds_hold_on_full_templates(self):
        for h in (h0_family(), h2_family(), h3_family(), h4_family(), h5_family()):
            km = classify_intersecting(h)
            assert check_km_codegree_bounds(h, km)

    def test_bounds_hold_on_random_subfamilies(self):
        rng = random.Random(8)
        for big in (h0_family(), h2_family(), h3_family(), h4_family(), h5_family()):
            for _ in range(10):
                size = rng.randint(11, len(big.edges))
                sub = Hypergraph(big.n, 3, rng.sample(big.edges, size))
                km = classify_intersecting(sub)
                if km.tag in ("EKR", "H1"):
                    continue  # no bound applies
                assert check_km_codegree_bounds(sub, km), (km.tag, sub.edges)

    def test_h0_bound_is_tight_on_the_anchor_pairs(self):
        h = h0_family()
        km = classify_intersecting(h)
        assert km.tag == "H0"
        assert max_codegree2(h) == km_codegree_bound("H0", len(h.edges)) == 6
