"""Intersection patterns, projections, partitions, and pattern rank."""

import pytest

from deltasys import (
    Hypergraph,
    IntersectionPattern,
    ParameterError,
    build_star,
    intersection_structure,
    project,
    rank,
    validate_vertex_partition,
)


def fs(*sets):
    return [frozenset(s) for s in sets]


class TestIntersectionStructure:
    def test_star_edge(self):
        h = build_star(5, 3)
        assert intersection_structure(h, (1, 2, 3)) == {(1,), (1, 2), (1, 3)}

    def test_disjoint_edges_meet_in_empty_set(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)])
        assert intersection_structure(h, (1, 2, 3)) == {()}

    def test_lonely_edge_has_no_intersections(self):
        h = Hypergraph(6, 3, [(1, 2, 3)])
        assert intersection_structure(h, (1, 2, 3)) == set()

    def test_requires_edge_membership(self):
        h = build_star(5, 3)
        with pytest.raises(ParameterError):
            intersection_structure(h, (2, 3, 4))


class TestPartitionHelpers:
    def test_validate_accepts_and_normalizes(self):
        parts = validate_vertex_partition(5, [(2, 1), (4, 3), (5,)])
        assert parts == ((1, 2), (3, 4), (5,))

    def test_validate_allows_empty_parts(self):
        assert validate_vertex_partition(3, [(1, 2, 3), ()]) == ((1, 2, 3), ())

    def test_validate_rejects_overlap_and_gaps(self):
        with pytest.raises(ParameterError):
            validate_vertex_partition(4, [(1, 2), (2, 3, 4)])
        with pytest.raises(ParameterError):
            validate_vertex_partition(4, [(1, 2), (3,)])
        with pytest.raises(ParameterError):
            validate_vertex_partition(4, [(1, 2), (3, 4, 5)])

    def test_project_uses_one_based_part_indices(self):
        parts = [(1, 2), (3, 4), (5,)]
        assert project((1, 5), parts, n=5) == frozenset({1, 3})
        assert project((3,), parts, n=5) == frozenset({2})
        assert project((), parts, n=5) == frozenset()

    def test_project_rejects_uncovered_vertices(self):
        with pytest.raises(ParameterError):
            project((1, 9), [(1, 2), (3, 4)], n=4)


class TestPattern:
    def test_members_must_be_proper_subsets(self):
        with pytest.raises(ParameterError):
            IntersectionPattern.of(2, fs({1, 2}))
        IntersectionPattern.of(3, fs({1, 2}))  # proper for k=3, fine

    def test_members_must_lie_in_one_to_k(self):
        with pytest.raises(ParameterError, match=r"^pattern member \[1, 4\] is not a subset of 1..3$"):
            IntersectionPattern.of(3, [(1, 4)])

    def test_closure_detection(self):
        open_pattern = IntersectionPattern.of(3, fs({1}, {2}))
        assert not open_pattern.is_closed
        closed = IntersectionPattern.of(3, fs((), {1}, {2}))
        assert closed.is_closed

    def test_open_pair_is_the_first_of_the_open_pairs(self):
        # both {1} & {2,3} and {1,2} & {2,3} fall outside; the first comes
        # first in combinations order over sorted_sets()
        p = IntersectionPattern.of(3, fs({2, 3}, {1, 2}, {1}))
        assert p.open_pair() == ((1,), (2, 3))
        assert not p.is_closed
        q = IntersectionPattern.of(3, fs({2, 3}, {1, 2}, {1}, ()))
        assert q.open_pair() == ((1, 2), (2, 3))
        assert IntersectionPattern.of(3, fs((), {1}, {2})).open_pair() is None

    def test_sorted_sets_order(self):
        p = IntersectionPattern.of(3, fs({2, 3}, {3}, (), {1}))
        assert p.sorted_sets() == ((), (1,), (3,), (2, 3))

    def test_equality_is_structural(self):
        a = IntersectionPattern.of(3, fs({1}, ()))
        b = IntersectionPattern.of(3, fs((), {1}))
        assert a == b


class TestRank:
    def test_no_members_is_rank_zero(self):
        assert rank(IntersectionPattern.of(3, [])) == 0

    def test_only_empty_set_is_rank_one(self):
        assert rank(IntersectionPattern.of(3, fs(()))) == 1

    def test_mixed_example(self):
        p = IntersectionPattern.of(3, fs((), {1}, {2}, {3}, {2, 3}))
        assert rank(p) == 2

    def test_all_proper_subsets_is_rank_k(self):
        p = IntersectionPattern.of(
            3, fs((), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3})
        )
        assert rank(p) == 3

    def test_absent_singleton_with_superset_does_not_count(self):
        # {2} is missing but sits below {1,2}; {3} is missing with no
        # superset present, so the rank stops at 1
        p = IntersectionPattern.of(3, fs((), {1}, {1, 2}))
        assert rank(p) == 1
        q = IntersectionPattern.of(4, fs((), {1}, {2}, {3}, {4}, {1, 2}))
        assert rank(q) == 2
