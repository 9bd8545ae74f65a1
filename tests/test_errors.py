"""Integer parameters: every entry point refuses a non-int or out-of-range
value with a plain ParameterError that names the parameter."""

from itertools import combinations

import pytest

from deltasys import (
    DesignSpec,
    ForbiddenConfig,
    Hypergraph,
    IntersectionPattern,
    NodeCounter,
    ParameterError,
    SunflowerCluster,
    UniformityError,
    build_counterexample,
    build_star,
    build_triple_system,
    check_cluster,
    check_nontrivial,
    codegree,
    complete_cluster,
    extract_homogeneous,
    find_cluster,
    find_nontrivial_subfamily,
    find_sunflower,
    is_d_simplex,
    is_homogeneous,
    km_codegree_bound,
    max_avoiding,
    shadow,
    subset_degrees,
    verify_counterexample,
)
from deltasys import constructions
from deltasys.errors import check_int

STAR = build_star(6, 3)
SIMPLEX = [(1, 2), (1, 3), (2, 3)]
PARTS = ((1,), (2, 3), (4, 5, 6))
SEMI = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ((1, 2, 6),)))

# (parameter name in the message, call taking the value, a value just below
# the range)
ENTRY_POINTS = {
    "node budget": ("node budget", NodeCounter, 0),
    "Hypergraph n": ("n", lambda v: Hypergraph(v, 1, []), 0),
    "Hypergraph k": ("k", lambda v: Hypergraph(5, v, []), 0),
    "shadow": ("shadow order", lambda v: shadow(STAR, v), -1),
    "subset_degrees": ("subset size", lambda v: subset_degrees(STAR, v), -1),
    "check_nontrivial": ("intersection order d", lambda v: check_nontrivial(SIMPLEX, v), 1),
    "is_d_simplex": ("simplex order d", lambda v: is_d_simplex(SIMPLEX, v), 0),
    "find_nontrivial_subfamily t": (
        "target size t", lambda v: find_nontrivial_subfamily(STAR, v, 2), -1),
    "find_nontrivial_subfamily d": (
        "intersection order d", lambda v: find_nontrivial_subfamily(STAR, 5, v), 1),
    "find_nontrivial_subfamily budget": (
        "node budget", lambda v: find_nontrivial_subfamily(STAR, 5, 2, budget=v), 0),
    "find_sunflower": ("sunflower size", lambda v: find_sunflower(STAR, (1,), v), 1),
    "complete_cluster": ("group size", lambda v: complete_cluster(SEMI, (v, 1)), 0),
    "is_homogeneous": ("petal count s", lambda v: is_homogeneous(STAR, v, PARTS), 1),
    "extract_homogeneous s": ("petal count s", lambda v: extract_homogeneous(STAR, v), 1),
    "extract_homogeneous restarts": (
        "restarts", lambda v: extract_homogeneous(STAR, 2, restarts=v), -1),
    "DesignSpec n": ("n", lambda v: DesignSpec(v, 1), 2),
    "DesignSpec lam": ("multiplicity lam", lambda v: DesignSpec(7, v), 0),
    "build_counterexample n": ("n", lambda v: build_counterexample(v, 4), 2),
    "build_counterexample m": ("m", lambda v: build_counterexample(9, v), 3),
    "verify_counterexample": (
        "m", lambda v: verify_counterexample(STAR, v, mode="degree-argument"), 3),
    "ForbiddenConfig t": (
        "t", lambda v: ForbiddenConfig("nontrivial-intersecting", t=v, d=2), 0),
    "ForbiddenConfig d": (
        "d", lambda v: ForbiddenConfig("nontrivial-intersecting", t=5, d=v), 0),
    "IntersectionPattern": ("k", lambda v: IntersectionPattern.of(v, []), 0),
    "km_codegree_bound": ("size", lambda v: km_codegree_bound("H0", v), -1),
    "max_avoiding budget": (
        "node budget", lambda v: max_avoiding(5, 3, ForbiddenConfig("d-simplex", d=2), budget=v), 0),
    "verify_counterexample budget": (
        "node budget",
        lambda v: verify_counterexample(STAR, 4, mode="degree-argument", budget=v), 0),
    "Hypergraph vertex": ("vertex label", lambda v: Hypergraph(3, 2, [(v, 2)]), 0),
    "find_cluster block size": ("block size", lambda v: find_cluster(STAR, (v, 2), 3), 0),
    "find_cluster d": ("petal count d", lambda v: find_cluster(STAR, (2, 1), v), 1),
    "ForbiddenConfig block size": (
        "block size", lambda v: ForbiddenConfig("avd-system", part_sizes=(v, 2), d=3), 0),
}


@pytest.mark.parametrize("value", [2.5, "3", 4.0, True, "below"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_refuses_a_bad_integer(entry, value):
    name, call, below = ENTRY_POINTS[entry]
    if value == "below":
        value = below
    with pytest.raises(ParameterError, match=f"^{name} must be an integer") as err:
        call(value)
    # a subclass such as AdmissibilityError would misname the fault
    assert type(err.value) is ParameterError


# entry points that build a vertex mask from labels they are given
LABELLED = {
    "codegree": lambda v: codegree(STAR, (1, v)),
    "check_nontrivial": lambda v: check_nontrivial([(1, v), (1, 2), (2, v)], 2),
    "is_d_simplex": lambda v: is_d_simplex([(1, v), (1, 2), (2, v)], 2),
    "check_cluster": lambda v: check_cluster(
        SunflowerCluster((1, 2, v), ((1, 2), (v,)), (((v, 4, 5),), ((1, 2, 6),))), 2),
    "find_sunflower": lambda v: find_sunflower(STAR, (v,), 2),
    "Hypergraph": lambda v: Hypergraph(3, 2, [(v, 2)]),
}


@pytest.mark.parametrize("label", [129, 10 ** 20])
@pytest.mark.parametrize("entry", sorted(LABELLED))
def test_a_vertex_label_above_the_cap_is_refused(entry, label):
    # refused before a mask of `label` bits is built
    with pytest.raises(ParameterError,
                       match=f"^vertex label must be an integer in 1..128, got {label}$") as err:
        LABELLED[entry](label)
    assert type(err.value) is ParameterError


def test_check_int_returns_the_value_in_range():
    assert check_int("x", 3, 1) == 3
    assert check_int("x", 0, 0, 0) == 0
    with pytest.raises(ParameterError, match=r"^x must be an integer in 1\.\.2, got 3$"):
        check_int("x", 3, 1, 2)
    with pytest.raises(ParameterError, match=r"^x must be an integer at least 1, got 2\.5$"):
        check_int("x", 2.5, 1)


# seeded entry points: the seed may be any int, negative ones included
SEEDED = {
    "extract_homogeneous": lambda seed: extract_homogeneous(STAR, 2, seed=seed, restarts=1),
    "build_triple_system": lambda seed: build_triple_system(DesignSpec(7, 1), seed),
    "build_counterexample": lambda seed: build_counterexample(9, 4, seed=seed),
}


@pytest.mark.parametrize("value", [1.5, "3", "a", True])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_seed_must_be_an_int(entry, value):
    with pytest.raises(ParameterError, match="^seed must be an integer, got ") as err:
        SEEDED[entry](value)
    assert type(err.value) is ParameterError


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_negative_seed_is_accepted(entry):
    assert SEEDED[entry](-1) == SEEDED[entry](-1)


@pytest.mark.parametrize("call", [
    lambda: complete_cluster(SEMI, 3),
    lambda: find_cluster(STAR, 3, 2),
    lambda: ForbiddenConfig("avd-system", part_sizes=3, d=2),
], ids=["complete_cluster", "find_cluster", "ForbiddenConfig"])
def test_sizes_that_are_not_a_sequence_are_refused(call):
    with pytest.raises(ParameterError, match="sizes must be a sequence of integers, got 3$"):
        call()


def test_check_int_refuses_bools_and_may_leave_the_range_open():
    assert check_int("x", -7, None) == -7
    with pytest.raises(ParameterError, match=r"^x must be an integer, got 2\.5$"):
        check_int("x", 2.5, None)
    with pytest.raises(ParameterError, match=r"^x must be an integer at least 1, got True$"):
        check_int("x", True, 1)



@pytest.mark.parametrize("budget", [None, 5])
@pytest.mark.parametrize("mode", ["degree-argument", "exhaustive", "both"])
def test_verify_counterexample_refuses_a_non_triple_system(mode, budget, monkeypatch):
    # refused before the search, so the budget cannot decide the answer
    monkeypatch.setattr(constructions, "find_nontrivial_subfamily", None)
    h = Hypergraph(8, 4, list(combinations(range(1, 9), 4)))
    with pytest.raises(UniformityError,
                       match=r"^pair-codegree maximum is defined for k=3 only, got k=4$"):
        verify_counterexample(h, 4, mode=mode, budget=budget)
