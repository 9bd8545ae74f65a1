"""Core hypergraph type, shadows, codegrees, and the weight identity."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from deltasys import (
    Hypergraph,
    ParameterError,
    UniformityError,
    build_star,
    codegree,
    codegree_histogram,
    edge_weight,
    max_codegree2,
    meet,
    shadow,
    subset_degrees,
    weight_identity,
)
from deltasys.hypergraph import NO_MEETS, Meeting, holders_of, join_meets
from conftest import random_hypergraph, reference_narrow


class TestConstruction:
    def test_edges_are_sorted(self):
        h = Hypergraph(5, 3, [(3, 2, 5), (1, 2, 3)])
        assert h.edges == ((1, 2, 3), (2, 3, 5))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ParameterError):
            Hypergraph(5, 3, [(3, 2, 5), (2, 3, 5)])

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ParameterError):
            Hypergraph(4, 3, [(1, 2, 5)])
        with pytest.raises(ParameterError):
            Hypergraph(4, 3, [(0, 1, 2)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ParameterError):
            Hypergraph(5, 3, [(1, 2)])

    def test_rejects_repeated_vertex_inside_edge(self):
        # a repeated vertex collapses the edge below size k
        with pytest.raises(ParameterError):
            Hypergraph(5, 3, [(1, 1, 2)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            Hypergraph(0, 1, [])
        with pytest.raises(ParameterError):
            Hypergraph(3, 4, [])
        with pytest.raises(ParameterError):
            Hypergraph(200, 3, [(1, 2, 3)])

    def test_equality_and_hash(self):
        h = build_star(5, 3)
        same = Hypergraph(5, 3, h.edges)
        assert h == same
        assert hash(h) == hash(same)
        assert h != Hypergraph(6, 3, h.edges)

    def test_membership(self):
        h = build_star(5, 3)
        assert (1, 2, 3) in h
        assert (3, 2, 1) in h  # order-insensitive
        assert (2, 3, 4) not in h

    def test_restrict_to_known_edges(self):
        h = build_star(5, 3)
        sub = h.restrict([(1, 2, 3), (1, 4, 5)])
        assert sub.edges == ((1, 2, 3), (1, 4, 5))
        assert sub.n == 5
        with pytest.raises(ParameterError):
            h.restrict([(2, 3, 4)])

    def test_degree(self):
        h = build_star(5, 3)
        assert h.degree(1) == 6
        assert h.degree(2) == 3
        assert h.degree(5) == 3

    @pytest.mark.parametrize("vertex", [0, 2.5, True, 1000])
    def test_degree_refuses_a_bad_vertex_label(self, vertex):
        with pytest.raises(ParameterError, match="vertex label"):
            build_star(5, 3).degree(vertex)

    def test_degree_of_a_label_above_n_is_zero(self):
        # as `codegree` counts it: a valid label that no edge holds
        h = build_star(5, 3)
        assert h.degree(6) == h.degree(128) == codegree(h, (128,)) == 0


class TestShadow:
    def test_star_first_shadow_is_all_pairs(self):
        h = build_star(5, 3)
        assert shadow(h, 1) == set(combinations(range(1, 6), 2))

    def test_order_zero_is_the_edge_set(self):
        h = build_star(5, 3)
        assert shadow(h, 0) == set(h.edges)

    def test_top_order_is_covered_vertices(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (1, 2, 4)])
        assert shadow(h, 2) == {(1,), (2,), (3,), (4,)}

    def test_order_out_of_range(self):
        h = build_star(5, 3)
        with pytest.raises(ParameterError):
            shadow(h, 3)
        with pytest.raises(ParameterError):
            shadow(h, -1)

    def test_shadow_sizes_monotone_under_edge_addition(self):
        rng = random.Random(11)
        for _ in range(20):
            h = random_hypergraph(rng, n=8, k=3)
            bigger_edges = set(h.edges)
            pool = [e for e in combinations(range(1, 9), 3) if e not in bigger_edges]
            if pool:
                bigger_edges.add(rng.choice(pool))
            big = Hypergraph(8, 3, bigger_edges)
            for i in range(3):
                assert shadow(h, i) <= shadow(big, i)


class TestCodegree:
    def test_star_values(self):
        h = build_star(5, 3)
        assert codegree(h, (1,)) == 6
        assert codegree(h, (1, 2)) == 3
        assert codegree(h, (2, 3)) == 1
        assert codegree(h, (2, 5)) == 1
        assert codegree(h, ()) == 6

    def test_max_codegree2(self):
        assert max_codegree2(build_star(5, 3)) == 3
        assert max_codegree2(Hypergraph(5, 3, [(1, 2, 3)])) == 1
        assert max_codegree2(Hypergraph(5, 3, [])) == 0

    def test_max_codegree2_requires_triples(self):
        with pytest.raises(UniformityError):
            max_codegree2(Hypergraph(4, 2, [(1, 2)]))

    def test_histogram_star(self):
        # 4 pairs through the hub at codegree 3, the remaining 6 at 1
        assert codegree_histogram(build_star(5, 3)) == {3: 4, 1: 6}

    def test_histogram_counts_uncovered_pairs_at_zero(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        assert codegree_histogram(h) == {1: 3, 0: 3}

    def test_histogram_total_is_all_pairs(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_hypergraph(rng, k=3)
            hist = codegree_histogram(h)
            assert sum(hist.values()) == h.n * (h.n - 1) // 2

    def test_subset_degrees_match_codegree_on_every_subset(self):
        # the one-pass table against the per-query rescan, for every vertex
        # subset of every size the table accepts, absent subsets included
        rng = random.Random(4181)
        for _ in range(25):
            h = random_hypergraph(rng, n=rng.randint(4, 8))
            for s in range(h.k + 1):
                table = subset_degrees(h, s)
                for sub in combinations(range(1, h.n + 1), s):
                    assert table.get(sub, 0) == codegree(h, sub), (h.edges, sub)

    def test_subset_degrees_size_out_of_range(self):
        h = build_star(5, 3)
        with pytest.raises(ParameterError):
            subset_degrees(h, 4)
        with pytest.raises(ParameterError):
            subset_degrees(h, -1)


def looped_degrees(edges, size):
    """subset -> the number of edges holding it, by plain loops."""
    out = {}
    for e in edges:
        for sub in combinations(e, size):
            out[sub] = out.get(sub, 0) + 1
    return out


def seeded_graphs():
    # four seeded graphs for each k = 1..5, and the empty hypergraph
    rng = random.Random(2531)
    out = [Hypergraph(6, k, []) for k in (1, 3)]
    for k in range(1, 6):
        for _ in range(4):
            n = rng.randint(k, k + 5)
            pool = list(combinations(range(1, n + 1), k))
            out.append(Hypergraph(n, k, rng.sample(pool, rng.randint(1, min(len(pool), 30)))))
    return out


@pytest.mark.parametrize("h", seeded_graphs(), ids=repr)
class TestAgainstPlainLoops:
    def test_subset_degrees_and_shadows(self, h):
        for size in range(h.k + 1):
            assert subset_degrees(h, size) == looped_degrees(h.edges, size)
        for i in range(h.k):
            assert shadow(h, i) == set(looped_degrees(h.edges, h.k - i))

    def test_weight_identity(self, h):
        degrees = looped_degrees(h.edges, h.k - 1)
        total = Fraction(0)
        for e in h.edges:
            for sub in combinations(e, h.k - 1):
                total += Fraction(1, degrees[sub])
        weights, covered = weight_identity(h)
        assert isinstance(weights, Fraction)
        assert (weights, covered) == (total, len(degrees))
        assert total == len(degrees)


class TestMeeting:
    def test_against_brute_force(self):
        # 80 seeded member lists on up to 8 vertices, 40 queries each with d
        # in {2, 3, 4, 5}; one index answers all of a list's queries, so
        # every cached answer is read back under other keys too
        rng = random.Random(2027)
        for trial in range(80):
            n = rng.randint(3, 8)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 10))]
            members = range(len(masks))
            idx = Meeting(masks)
            assert idx.holders == {
                v: held for v in range(1, n + 1)
                if (held := sum(1 << i for i in members if masks[i] >> (v - 1) & 1))}
            # every member's row is in the cache before the first lookup
            assert dict(idx) == {x: sum(1 << i for i in members if masks[i] & x)
                                 for x in masks}, trial
            for _ in range(40):
                x = rng.randrange(1 << n)
                assert idx[x] == sum(1 << i for i in members if masks[i] & x), (trial, x)
                common, bits = rng.randrange(1 << n), rng.randrange(1 << len(masks))
                assert idx.kept(common, bits) == sum(
                    1 << (v - 1) for v in range(1, n + 1)
                    if common >> (v - 1) & 1
                    and all(masks[i] >> (v - 1) & 1 for i in members if bits >> i & 1)
                ), (trial, common, bits)

    def test_carried_meets_narrow_as_the_brute_force_does(self):
        # the narrowing the kernel and the kill walk read from carried meets,
        # against the brute force and the per-pick rebuild it replaced, for
        # d in {2, 3, 4, 5} and up to five picked members
        rng = random.Random(2029)
        seen = set()
        for trial in range(120):
            n = rng.randint(3, 8)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 10))]
            members = range(len(masks))
            idx = Meeting(masks)
            for _ in range(20):
                d, s = rng.choice((2, 3, 4, 5)), rng.randrange(len(masks))
                others = [i for i in members if i != s]
                picked = rng.sample(others, rng.randint(0, min(5, len(others))))
                meets = NO_MEETS
                for i in picked:
                    meets = join_meets(meets, masks[i], d)
                assert [sorted(level) for level in meets] == [
                    sorted(meet(masks[i] for i in sub) for sub in combinations(picked, j))
                    for j in range(min(len(picked), d - 2) + 1)], (trial, picked, d)
                out = rng.randrange(1 << len(masks))
                narrowed = out
                for y in meets[-1]:
                    narrowed &= idx[y & masks[s]]
                # j stays when j, s and any d-2 or fewer picked members share
                # a vertex
                assert narrowed == sum(
                    1 << j for j in members
                    if out >> j & 1
                    and all(masks[j] & masks[s] & meet(masks[i] for i in sub)
                            for r in range(d - 1) for sub in combinations(picked, r))
                ), (trial, picked, s, d)
                assert narrowed == reference_narrow(idx, out, picked, s, d)
                seen.add((d, min(len(picked), d - 2)))
        assert seen == {(d, r) for d in (2, 3, 4, 5) for r in range(d - 1)}, seen

    def test_holders_of_member_tuples(self):
        # the tuples `_MaskIndex` and `classify_intersecting` pass give the
        # table `Meeting` builds from the same members' masks
        rng = random.Random(3031)
        for trial in range(60):
            h = random_hypergraph(rng, k=(2, 3, 4)[trial % 3], max_edges=60)
            held = holders_of(h.edges)
            assert held == Meeting(h.edge_masks).holders, trial
            assert held == {v: sum(1 << i for i, e in enumerate(h.edges) if v in e)
                            for v in range(1, h.n + 1) if h.degree(v)}, trial


class TestWeights:
    def test_edge_weight_two_overlapping_triples(self):
        h = Hypergraph(4, 3, [(1, 2, 3), (1, 2, 4)])
        # 1/deg(12) + 1/deg(13) + 1/deg(23) = 1/2 + 1 + 1
        assert edge_weight(h, (1, 2, 3)) == Fraction(5, 2)

    def test_edge_weight_rejects_non_edges(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        with pytest.raises(ParameterError):
            edge_weight(h, (1, 2, 4))

    def test_identity_small(self):
        h = Hypergraph(4, 3, [(1, 2, 3), (1, 2, 4)])
        total, cover = weight_identity(h)
        assert total == cover == 5

    def test_identity_exact_on_random_inputs(self):
        rng = random.Random(20240819)
        for _ in range(60):
            h = random_hypergraph(rng)
            total, cover = weight_identity(h)
            assert isinstance(total, Fraction)
            assert total == cover

    def test_identity_sum_matches_per_edge_weights(self):
        # the tabulated sum against edge_weight, which rescans for codegrees
        rng = random.Random(77)
        for _ in range(40):
            h = random_hypergraph(rng, k=rng.choice((1, 2, 3, 4)))
            assert weight_identity(h)[0] == sum(edge_weight(h, e) for e in h.edges)
        # one graph whose pair degrees take many values, so that the sum
        # groups its terms under several distinct degrees
        h = Hypergraph(12, 3, rng.sample(list(combinations(range(1, 13), 3)), 120))
        assert len(set(subset_degrees(h, 2).values())) >= 5
        assert weight_identity(h)[0] == sum(edge_weight(h, e) for e in h.edges)

    def test_identity_singleton_edges(self):
        # k=1: every edge weighs 1/|H| and the empty set is the one subset
        assert weight_identity(Hypergraph(3, 1, [(1,), (3,)])) == (1, 1)
        assert weight_identity(Hypergraph(3, 1, [])) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shadow_members_are_subsets_of_edges(data):
    n = data.draw(st.integers(min_value=3, max_value=9))
    edges = data.draw(
        st.sets(
            st.frozensets(st.integers(1, n), min_size=3, max_size=3),
            min_size=1,
            max_size=12,
        )
    )
    h = Hypergraph(n, 3, [tuple(sorted(e)) for e in edges])
    for i in range(3):
        for sub in shadow(h, i):
            assert len(sub) == 3 - i
            assert any(set(sub) <= set(e) for e in h.edges)
