"""Sunflowers, sunflower clusters, completion, and cluster search."""

import hashlib
import json
import random
from itertools import combinations

import pytest

from deltasys import (
    Hypergraph,
    NodeCounter,
    ParameterError,
    PreconditionError,
    SearchStatus,
    SunflowerCluster,
    build_star,
    check_cluster,
    check_semi_cluster,
    check_sunflower,
    complete_cluster,
    find_cluster,
    find_sunflower,
    is_sunflower,
    mask_of,
)
from deltasys.sunflowers import disjoint_clusters
from conftest import (block_shapes, forms_cluster, random_full_cluster, random_hypergraph,
                      random_semi_cluster)


def brute_force_sunflower(h, center, s, require_edge=None):
    """The first s-subset, in `combinations` order, of the edges through the
    center whose pairwise meets all equal the center; with `require_edge`,
    the first such subset that holds that edge."""
    c = set(center)
    through = [e for e in h.edges if c <= set(e)]
    for subset in combinations(through, s):
        if require_edge is not None and require_edge not in subset:
            continue
        if all(set(a) & set(b) == c for a, b in combinations(subset, 2)):
            return subset
    return None


class TestSunflowerCheck:
    def test_star_petals(self):
        chk = check_sunflower([(1, 2, 3), (1, 4, 5), (1, 6, 7)])
        assert chk.ok
        assert chk.sunflower.center == (1,)
        assert chk.sunflower.petals == ((1, 2, 3), (1, 4, 5), (1, 6, 7))

    def test_disjoint_edges_have_empty_center(self):
        chk = check_sunflower([(1, 2, 3), (4, 5, 6)])
        assert chk.ok
        assert chk.sunflower.center == ()

    def test_violating_pair_is_reported(self):
        chk = check_sunflower([(1, 2, 3), (1, 4, 5), (1, 2, 6)])
        assert not chk.ok
        assert chk.violating == ((1, 2, 3), (1, 2, 6))
        assert chk.sunflower is None

    def test_too_few_or_duplicate_petals(self):
        with pytest.raises(ParameterError):
            check_sunflower([(1, 2, 3)])
        with pytest.raises(ParameterError):
            check_sunflower([])
        with pytest.raises(ParameterError):
            check_sunflower([(1, 2, 3), (3, 2, 1)])

    def test_is_sunflower_mirrors_check(self):
        assert is_sunflower([(1, 2, 3), (1, 4, 5)])
        assert not is_sunflower([(1, 2, 3), (1, 2, 4), (1, 3, 4)])


class TestFindSunflower:
    def test_star_hub(self):
        sf = find_sunflower(build_star(9, 3), (1,), 4)
        assert sf.center == (1,)
        # greedy lexicographic choice is deterministic
        assert sf.petals == ((1, 2, 3), (1, 4, 5), (1, 6, 7), (1, 8, 9))

    def test_none_when_too_large(self):
        assert find_sunflower(build_star(9, 3), (1,), 5) is None

    def test_center_must_be_inside_petals(self):
        # edges through 2 but only one avoiding vertex 1 entirely: no pair
        # meets exactly in (2,)
        h = Hypergraph(6, 3, [(1, 2, 3), (1, 2, 4), (2, 5, 6)])
        assert find_sunflower(h, (2,), 2) is not None
        assert find_sunflower(h, (2,), 3) is None

    def test_require_edge(self):
        h = Hypergraph(9, 3, [(1, 2, 3), (2, 3, 4), (1, 4, 5), (1, 6, 7)])
        sf = find_sunflower(h, (1,), 2, require_edge=(1, 4, 5))
        assert (1, 4, 5) in sf.petals
        with pytest.raises(ParameterError):
            find_sunflower(h, (1,), 2, require_edge=(2, 3, 4))
        with pytest.raises(ParameterError):
            find_sunflower(h, (1,), 2, require_edge=(5, 6, 7))

    def test_size_validation(self):
        with pytest.raises(ParameterError):
            find_sunflower(build_star(5, 3), (1,), 1)

    def test_matches_the_brute_force_oracle(self):
        rng = random.Random(2718)
        outcomes = set()
        for _ in range(200):
            h = random_hypergraph(rng, max_edges=16)
            host = rng.choice(h.edges)
            center = tuple(sorted(rng.sample(host, rng.randrange(h.k))))
            s = rng.randint(2, 4)
            through = [e for e in h.edges if set(center) <= set(e)]
            for req in (None, rng.choice(through)):
                flower = find_sunflower(h, center, s, require_edge=req)
                got = None if flower is None else flower.petals
                assert got == brute_force_sunflower(h, center, s, req), (h.edges, center, s, req)
                if flower is not None:
                    assert flower.center == center
                outcomes.add((req is None, got is None))
        # each of found / none, with and without a required edge, occurs
        assert len(outcomes) == 4


class TestClusterShape:
    def test_accessors(self):
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ((1, 2, 6),)))
        assert c.block_sizes == (2, 1)
        assert c.group_sizes == (1, 1)
        assert c.petal_count == 2
        assert c.all_edges == ((1, 2, 3), (3, 4, 5), (1, 2, 6))

    def test_json_round_trip(self):
        c = SunflowerCluster(
            (1, 2, 3, 4),
            ((1, 2), (3,), (4,)),
            (((3, 4, 5, 6),), ((1, 2, 4, 7),), ((1, 2, 3, 8), (1, 2, 3, 9))),
        )
        assert SunflowerCluster.from_json(c.to_json()) == c

    def test_json_hands_over_the_fields(self):
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ((1, 2, 6),)))
        js = c.to_json()
        assert js == {"host": c.host, "blocks": c.blocks, "groups": c.groups}
        assert js["host"] is c.host and js["blocks"] is c.blocks and js["groups"] is c.groups

    @pytest.mark.parametrize("data", [{"host": [1, 2, 3]}, {"host": 5, "blocks": [], "groups": []}])
    def test_malformed_json_is_refused(self, data):
        with pytest.raises(ParameterError, match="malformed cluster witness"):
            SunflowerCluster.from_json(data)

    @pytest.mark.parametrize("cluster,reason", [
        (SunflowerCluster((1,), ((1,),), (((2,),),)), "at least two vertices"),
        (SunflowerCluster((1, 2), (), ()), "at least one partition block"),
        (SunflowerCluster((1, 2), ((1, 2), ()), (((3, 4),), ((1, 2),))), "nonempty"),
        (SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ((1, 2),))),
         "has size 2, host has size 3"),
    ])
    def test_shape_refusals(self, cluster, reason):
        with pytest.raises(ParameterError, match=reason):
            check_semi_cluster(cluster)

    def test_blocks_must_partition_host(self):
        # the container is permissive; the checkers enforce the shape
        c = SunflowerCluster((1, 2, 3), ((1, 2),), (((3, 4, 5),),))
        with pytest.raises(ParameterError):
            check_semi_cluster(c)
        c = SunflowerCluster((1, 2, 3), ((1, 2), (2, 3)), (((3, 4, 5),), ((1, 6, 7),)))
        with pytest.raises(ParameterError):
            check_cluster(c)

    def test_one_group_per_block(self):
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),),))
        with pytest.raises(ParameterError):
            check_semi_cluster(c)
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ()))
        with pytest.raises(ParameterError):
            check_cluster(c)


class TestSemiCheck:
    def test_semi_allows_overlap_across_groups(self):
        c = SunflowerCluster(
            (1, 2, 3),
            ((1, 2), (3,)),
            (((3, 4, 5),), ((1, 2, 4),)),  # vertex 4 reused across groups
        )
        assert check_semi_cluster(c).ok
        chk = check_cluster(c, 2)
        assert not chk.ok  # the overlap breaks full disjointness

    def test_edge_meeting_host_outside_center_fails(self):
        c = SunflowerCluster(
            (1, 2, 3),
            ((1, 2), (3,)),
            (((2, 4, 5),), ((1, 2, 6),)),  # group-1 edge keeps host vertex 2
        )
        chk = check_semi_cluster(c)
        assert not chk.ok
        assert chk.reason

    def test_repeated_edge_fails(self):
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)),
                             (((3, 4, 5), (3, 4, 5)), ((1, 2, 6),)))
        chk = check_semi_cluster(c)
        assert not chk.ok
        assert chk.reason == "edge (3, 4, 5) appears twice in the cluster"

    def test_overlap_within_group_fails(self):
        c = SunflowerCluster(
            (1, 2, 3),
            ((1, 2), (3,)),
            (((3, 4, 5), (3, 5, 6)), ((1, 2, 7),)),  # petals share vertex 5
        )
        assert not check_semi_cluster(c).ok

    def test_full_check_counts_petals(self):
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ((1, 2, 6),)))
        assert check_cluster(c, 2).ok
        assert check_cluster(c).ok  # d defaults to the petal count
        assert not check_cluster(c, 3).ok

    def test_random_full_clusters_pass(self):
        rng = random.Random(42)
        for _ in range(30):
            sizes = rng.choice([(2, 1), (1, 1, 1), (2, 2), (3, 1)])
            counts = tuple(rng.randint(1, 3) for _ in sizes)
            c, _ = random_full_cluster(rng, sizes, counts)
            assert check_cluster(c, sum(counts)).ok

    def test_random_semi_clusters_pass_semi_check(self):
        rng = random.Random(43)
        for _ in range(30):
            sizes = rng.choice([(2, 1), (2, 2), (3, 1), (2, 1, 1)])
            counts = tuple(rng.randint(1, 4) for _ in sizes)
            c, _ = random_semi_cluster(rng, sizes, counts)
            assert check_semi_cluster(c).ok


class TestCompletion:
    def test_worked_example(self):
        c = SunflowerCluster(
            (1, 2, 3),
            ((1, 2), (3,)),
            (((3, 4, 5),), ((1, 2, 6), (1, 2, 4), (1, 2, 7))),
        )
        done = complete_cluster(c, (1, 1))
        assert check_cluster(done, 2).ok
        assert done.groups[0] == ((3, 4, 5),)
        # (1,2,4) collides with the residue {4,5} already used by group 1
        assert done.groups[1] == ((1, 2, 6),)

    def test_insufficient_group_raises(self):
        c = SunflowerCluster(
            (1, 2, 3),
            ((1, 2), (3,)),
            (((3, 4, 5),), ((1, 2, 6), (1, 2, 4), (1, 2, 7))),
        )
        # group 2 needs 2 + 2*1 = 4 candidates for b=(1,2), has only 3
        with pytest.raises(PreconditionError):
            complete_cluster(c, (1, 2))

    def test_group_sizes_validated(self):
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ((1, 2, 6),)))
        with pytest.raises(ParameterError):
            complete_cluster(c, (1,))
        with pytest.raises(ParameterError):
            complete_cluster(c, (0, 1))

    def test_non_semi_cluster_is_refused(self):
        # the group-1 edge keeps host vertex 2 outside its center
        c = SunflowerCluster((1, 2, 3), ((1, 2), (3,)), (((2, 4, 5),), ((1, 2, 6),)))
        with pytest.raises(ParameterError, match="^input is not a semi cluster: "):
            complete_cluster(c, (1, 1))

    @staticmethod
    def greedy_completion(c, want):
        """One sweep per group in lexicographic order, taking each edge whose
        residue misses every residue taken so far."""
        host_mask = mask_of(c.host)
        used = 0
        groups = []
        for group, b in zip(c.groups, want):
            chosen = []
            for e in sorted(group):
                if len(chosen) == b:
                    break
                res = mask_of(e) & ~host_mask
                if res & used == 0:
                    chosen.append(e)
                    used |= res
            assert len(chosen) == b
            groups.append(tuple(chosen))
        return tuple(groups)

    def test_random_semi_completions(self):
        rng = random.Random(20240819)
        shapes = [(2, 1), (2, 2), (3, 1), (2, 1, 1)]
        for trial in range(40):
            sizes = shapes[trial % len(shapes)]
            want = tuple(rng.randint(1, 3) for _ in sizes)
            counts = []
            for i, b in enumerate(want):
                blocked = sum(sizes[j] * want[j] for j in range(i))
                counts.append(b + blocked + rng.randint(0, 2))
            c, _ = random_semi_cluster(rng, sizes, tuple(counts))
            done = complete_cluster(c, want)
            assert check_cluster(done, sum(want)).ok
            assert done.group_sizes == want
            assert done.groups == self.greedy_completion(c, want)
            # the selection must come from the original groups
            for sel, orig in zip(done.groups, c.groups):
                assert set(sel) <= set(orig)


def seeded_cluster_graph(rng, shape, d):
    """A relabelled semi cluster with d+1 petals whose groups collide, plus noise.

    Whether a disjoint cluster with d petals survives depends on the draw,
    so the grid below holds both FOUND and NONE cases.
    """
    counts = [1] * len(shape)
    for _ in range(d + 1 - len(shape)):
        counts[rng.randrange(len(shape))] += 1
    semi, n = random_semi_cluster(rng, shape, counts, pool_size=2)
    n += 1
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = {tuple(sorted(labels[v - 1] for v in e)) for e in semi.all_edges}
    edges.update(rng.sample(list(combinations(range(1, n + 1), sum(shape))), 5))
    return Hypergraph(n, sum(shape), edges)


ORACLE_SHAPES = [((1, 1), 2), ((1, 1), 3), ((2, 1), 2), ((1, 2), 3),
                 ((1, 1, 1), 3), ((2, 2), 2), ((1, 1, 2), 3)]


def oracle_graphs(shape, d):
    """Sixteen seeded inputs: seeded cluster graphs and small random graphs, in turn."""
    k = sum(shape)
    rng = random.Random(f"oracle-{shape}-{d}")
    for trial in range(16):
        if trial % 2:
            yield random_hypergraph(rng, n=rng.randint(k + 2, 9), k=k, max_edges=12)
        else:
            yield seeded_cluster_graph(rng, shape, d)


# sha256 prefix of the JSON list of (status, witness) over d = p..p+2 and
# twelve seeded graphs each
CLUSTER_PINS = {
    (1, 1): "0439bdf20d86bcb4",
    (1, 1, 1): "4cdfba1c59aab554",
    (1, 2): "cd784b0bc8bc1583",
    (2, 1): "c9346c30ace02b2e",
    (1, 1, 1, 1): "2d4e2fac6968c4e1",
    (1, 1, 2): "9c6972d837d3a7ff",
    (1, 2, 1): "ce3192d064c9a375",
    (1, 3): "f2d1149840c15324",
    (2, 1, 1): "ecbf0b20174d3883",
    (2, 2): "11542ab355783f82",
    (3, 1): "3aed33d61504ed85",
}


class TestFindCluster:
    @pytest.mark.parametrize("shape", [s for k in (2, 3, 4) for s in block_shapes(k)], ids=str)
    def test_pinned_witnesses(self, shape):
        rows = []
        for d in range(len(shape), len(shape) + 3):
            rng = random.Random(f"{shape}-{d}")
            for _ in range(12):
                out = find_cluster(seeded_cluster_graph(rng, shape, d), shape, d)
                rows.append([out.status.value, out.witness and out.witness.to_json()])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert digest == CLUSTER_PINS[shape]

    def test_star_has_no_clusters(self):
        out = find_cluster(build_star(6, 3), (2, 1), 2)
        assert out.status is SearchStatus.NONE
        assert out.witness is None
        assert out.nodes > 0

    def test_planted_cluster_is_recovered(self):
        rng = random.Random(7)
        for trial in range(10):
            sizes = rng.choice([(2, 1), (1, 1, 1), (1, 2)])
            counts = tuple(rng.randint(1, 2) for _ in sizes)
            planted, n = random_full_cluster(rng, sizes, counts)
            n = max(n, 9)
            edges = set(planted.all_edges)
            # noise edges that all share a pair, far from the plant
            edges.add((1, 2, min(n, 8)))
            h = Hypergraph(n, 3, edges)
            out = find_cluster(h, tuple(sorted(sizes)), sum(counts))
            assert out.found, (trial, sizes, counts)
            assert check_cluster(out.witness, sum(counts)).ok
            assert set(out.witness.all_edges) <= set(h.edges)

    @pytest.mark.parametrize("shape,d", ORACLE_SHAPES, ids=str)
    def test_matches_the_brute_force_oracle(self, shape, d):
        for trial, h in enumerate(oracle_graphs(shape, d)):
            clusters = {frozenset(sub) for sub in combinations(h.edges, d + 1)
                        if forms_cluster(sub, shape, d)}
            assert find_cluster(h, shape, d).found == bool(clusters), trial
            # every cluster is listed, and nothing else
            listed = {frozenset((h.edges[hi],) + tuple(h.edges[j] for g in groups for j in g))
                      for hi, _, groups in disjoint_clusters(h.edge_masks, shape, d,
                                                             NodeCounter())}
            assert listed == clusters, trial

    def test_composition_prune(self):
        # in a star every host partition leaves some group without candidates,
        # so no composition gets as far as picking a petal
        out = find_cluster(build_star(12, 3), (2, 1), 3, budget=1000)
        assert out.status is SearchStatus.NONE

    def test_sub_count_monotone(self):
        # a found (a, d)-cluster with d > #groups also yields d-1
        c, n = random_full_cluster(random.Random(12), (2, 1), (2, 2))
        h = Hypergraph(n, 3, c.all_edges)
        assert find_cluster(h, (2, 1), 4).found
        assert find_cluster(h, (2, 1), 3).found
        assert find_cluster(h, (2, 1), 2).found

    def test_parameter_validation(self):
        h = build_star(6, 3)
        with pytest.raises(ParameterError):
            find_cluster(h, (3,), 2)        # needs at least two blocks
        with pytest.raises(ParameterError):
            find_cluster(h, (2, 2), 2)      # sizes must sum to k
        with pytest.raises(ParameterError):
            find_cluster(h, (2, 0, 1), 3)   # blocks must be nonempty
        with pytest.raises(ParameterError):
            find_cluster(h, (2, 1), 1)      # d below the group count

    def test_fractional_block_sizes_are_refused(self):
        # truncated to (2, 1), a star would avoid it and the search answer NONE
        with pytest.raises(ParameterError, match="must be an integer"):
            find_cluster(build_star(6, 3), (2.5, 1.5), 2)

    def test_budget_exhaustion_reported(self):
        c, n = random_full_cluster(random.Random(3), (2, 1), (2, 2))
        h = Hypergraph(n, 3, c.all_edges)
        out = find_cluster(h, (2, 1), 4, budget=1)
        assert out.status is SearchStatus.BUDGET
        assert not out.found
