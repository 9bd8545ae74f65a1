"""Pattern-homogeneous subgraphs: validation, size bound, extraction."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from deltasys import (
    Hypergraph,
    IntersectionPattern,
    ParameterError,
    build_star,
    extract_homogeneous,
    find_cluster,
    find_sunflower,
    homogeneous_size_bound,
    intersection_structure,
    is_homogeneous,
    mask_of,
    project,
    rank,
    vertices_of,
)
from deltasys import homogeneous
from deltasys.homogeneous import _MaskIndex, _climb_partition, _edges_through, _refine
from conftest import random_hypergraph


def complete_tripartite(side):
    """All rainbow triples over three parts of the given size."""
    p1 = tuple(range(1, side + 1))
    p2 = tuple(range(side + 1, 2 * side + 1))
    p3 = tuple(range(2 * side + 1, 3 * side + 1))
    edges = [
        tuple(sorted((a, b, c))) for a in p1 for b in p2 for c in p3
    ]
    return Hypergraph(3 * side, 3, edges), (p1, p2, p3)


class TestIsHomogeneous:
    def test_single_edge_has_empty_pattern(self):
        h = Hypergraph(3, 3, [(1, 2, 3)])
        chk = is_homogeneous(h, 2, ((1,), (2,), (3,)))
        assert chk.ok
        assert chk.certificate.pattern.sets == frozenset()
        assert rank(chk.certificate.pattern) == 0
        assert homogeneous_size_bound(chk.certificate) == 1

    def test_perfect_matching(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)])
        chk = is_homogeneous(h, 2, ((1, 4), (2, 5), (3, 6)))
        assert chk.ok
        assert chk.certificate.pattern.sorted_sets() == ((),)
        assert rank(chk.certificate.pattern) == 1
        # rank 1 bounds the size by the vertex shadow
        assert homogeneous_size_bound(chk.certificate) == 6

    def test_grid_through_a_hub(self):
        # all edges {1, x, y} with x and y drawn from two fixed parts
        edges = [(1, x, y) for x in (2, 3, 4) for y in (5, 6, 7)]
        h = Hypergraph(7, 3, edges)
        parts = ((1,), (2, 3, 4), (5, 6, 7))
        chk = is_homogeneous(h, 3, parts)
        assert chk.ok
        cert = chk.certificate
        assert cert.pattern.sorted_sets() == ((1,), (1, 2), (1, 3))
        assert rank(cert.pattern) == 2
        assert homogeneous_size_bound(cert) == 15  # pair shadow
        assert len(cert.subgraph) == 9
        # s above the part size kills the sunflower condition
        deeper = is_homogeneous(h, 4, parts)
        assert not deeper.ok
        assert deeper.failure == "missing-sunflower"

    def test_complete_tripartite_has_full_rank(self):
        h, parts = complete_tripartite(3)
        chk = is_homogeneous(h, 3, parts)
        assert chk.ok
        assert rank(chk.certificate.pattern) == 3
        assert homogeneous_size_bound(chk.certificate) == 27

    def test_larger_tripartite_at_higher_depth(self):
        h, parts = complete_tripartite(7)
        chk = is_homogeneous(h, 7, parts)
        assert chk.ok
        assert rank(chk.certificate.pattern) == 3
        # full-rank homogeneity cannot dodge cluster structure
        out = find_cluster(h, (1, 1, 1), 3)
        assert out.found

    def test_wide_meets_stay_part_masks(self):
        # two 40-vertex edges meeting in 39 parts: the pattern holds one part
        # mask near 2^39, so it is a set of part masks, not a bit per mask
        base = tuple(range(1, 41))
        h = Hypergraph(41, 40, [base, base[:-1] + (41,)])
        chk = is_homogeneous(h, 2, ((40, 41),) + tuple((v,) for v in range(1, 40)))
        assert chk.ok
        assert chk.certificate.pattern.sorted_sets() == (tuple(range(2, 41)),)

    def test_not_k_partite(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        chk = is_homogeneous(h, 2, ((1, 2), (3,), (4,)))
        assert not chk.ok
        assert chk.failure == "not-k-partite"

    def test_pattern_mismatch(self):
        h = Hypergraph(6, 3, [(1, 2, 3), (1, 2, 6), (4, 5, 6)])
        chk = is_homogeneous(h, 2, ((1, 4), (2, 5), (3, 6)))
        assert not chk.ok
        assert chk.failure == "pattern-mismatch"

    def test_pattern_not_closed(self):
        # four rainbow 4-edges agreeing pairwise in exactly one coordinate
        # beyond the shared hub: pairwise projections are (1,2),(1,3),(1,4)
        # but their pairwise intersection (1,) is never realized
        h = Hypergraph(7, 4, [(1, 2, 4, 6), (1, 2, 5, 7), (1, 3, 4, 7), (1, 3, 5, 6)])
        chk = is_homogeneous(h, 2, ((1,), (2, 3), (4, 5), (6, 7)))
        assert not chk.ok
        assert chk.failure == "pattern-not-closed"
        assert chk.detail == ("(1, 2) and (1, 3) are in the pattern but their "
                              "intersection (1,) is not")

    def test_missing_sunflower(self):
        h = Hypergraph(4, 3, [(1, 2, 3), (1, 2, 4)])
        chk = is_homogeneous(h, 3, ((1,), (2,), (3, 4)))
        assert not chk.ok
        assert chk.failure == "missing-sunflower"
        assert "center (1, 2)" in chk.detail

    def test_witnesses_cover_every_realized_intersection(self):
        h, parts = complete_tripartite(2)
        chk = is_homogeneous(h, 2, parts)
        assert chk.ok
        seen = set()
        for edge, center, petals in chk.certificate.witnesses:
            assert edge in petals
            for p in petals:
                assert p in h
            for petal in petals:
                if petal != edge:
                    assert tuple(sorted(set(edge) & set(petal))) == center
            seen.add((edge, center))
        # one witness for each (edge, concrete intersection) pair
        for edge in chk.certificate.subgraph.edges:
            for other in chk.certificate.subgraph.edges:
                if other != edge:
                    inter = tuple(sorted(set(edge) & set(other)))
                    assert (edge, inter) in seen

    def test_validation(self):
        h = Hypergraph(4, 3, [(1, 2, 3)])
        with pytest.raises(ParameterError):
            is_homogeneous(h, 1, ((1,), (2,), (3, 4)))
        with pytest.raises(ParameterError):
            is_homogeneous(h, 2, ((1, 2), (3, 4)))
        with pytest.raises(ParameterError):
            is_homogeneous(Hypergraph(4, 3, []), 2, ((1,), (2,), (3, 4)))


class TestExtraction:
    def test_tripartite_is_kept_whole(self):
        h, _ = complete_tripartite(3)
        cert = extract_homogeneous(h, 2, seed=0)
        assert len(cert.subgraph) == 27
        assert rank(cert.pattern) == 3

    def test_always_valid_and_within_bound(self):
        rng = random.Random(424242)
        for trial in range(25):
            h = random_hypergraph(rng)
            cert = extract_homogeneous(h, 2, seed=trial, restarts=4)
            chk = is_homogeneous(cert.subgraph, cert.s, cert.partition)
            assert chk.ok
            assert 1 <= len(cert.subgraph) <= homogeneous_size_bound(cert)

    def test_deterministic_for_a_seed(self):
        rng = random.Random(606)
        h = random_hypergraph(rng, n=10, k=3, max_edges=30)
        a = extract_homogeneous(h, 2, seed=5)
        b = extract_homogeneous(h, 2, seed=5)
        assert a.subgraph == b.subgraph
        assert a.partition == b.partition

    def test_higher_s_extracts_no_more(self):
        rng = random.Random(9)
        for trial in range(10):
            h = random_hypergraph(rng, n=9, k=3, max_edges=25)
            lo = extract_homogeneous(h, 2, seed=trial)
            hi = extract_homogeneous(h, 4, seed=trial)
            chk = is_homogeneous(hi.subgraph, 4, hi.partition)
            assert chk.ok
            assert len(hi.subgraph) >= 1
            assert len(lo.subgraph) >= 1

    def test_to_json_carries_rank(self):
        h, _ = complete_tripartite(2)
        cert = extract_homogeneous(h, 2, seed=1)
        js = cert.to_json()
        assert js["rank"] == rank(cert.pattern)
        assert js["s"] == 2
        assert len(js["edges"]) == len(cert.subgraph)
        assert js["n"] == cert.subgraph.n and js["k"] == cert.subgraph.k
        # the certificate's own tuples, not copies
        assert js["edges"] is cert.subgraph.edges
        assert js["partition"] is cert.partition
        assert js["witnesses"]
        for entry, (e, c, ps) in zip(js["witnesses"], cert.witnesses, strict=True):
            assert entry["edge"] is e and entry["center"] is c and entry["petals"] is ps

    def test_star_extraction_respects_the_hub(self):
        cert = extract_homogeneous(build_star(9, 3), 2, seed=3)
        chk = is_homogeneous(cert.subgraph, 2, cert.partition)
        assert chk.ok
        if cert.pattern.sets:
            hub_part = [
                i for i, part in enumerate(cert.partition, start=1) if 1 in part
            ][0]
            for member in cert.pattern.sets:
                assert hub_part in member

    @pytest.mark.parametrize("seed, size, witnesses, digest", [
        (0, 442, 3094, "dfe171d902023cac"),
        (1, 442, 3094, "ec1742f63fec6b15"),
        (2, 438, 3066, "2d3b71ca83c5e278"),
        (3, 430, 3010, "d8b5a53face2975d"),
    ])
    def test_pinned_on_the_benchmark_input_shape(self, seed, size, witnesses, digest):
        # 1,500 triples on 30 points, drawn as the benchmark's
        # homogeneous-extract job draws them; the digest covers the whole
        # certificate, witnesses included
        rng = random.Random(seed * 1_000_003 + 13)
        h = Hypergraph(30, 3, sorted(rng.sample(list(combinations(range(1, 31), 3)), 1500)))
        cert = extract_homogeneous(h, 2, seed=seed, restarts=2)
        assert len(cert.subgraph) == size
        assert len(cert.witnesses) == witnesses
        text = json.dumps(cert.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("seed, size, witnesses, digest", [
        (0, 120, 840, "c2716c2ab3307377"),
        (1, 114, 798, "f59a4ff10e00ea6d"),
        (2, 113, 791, "69e4f53b638ce6c6"),
    ])
    def test_pinned_with_three_petals(self, seed, size, witnesses, digest):
        # 400 triples on 15 points, drawn as above; with s = 3 the sunflower
        # scan removes edges and the petals come from `disjoint_picks`
        rng = random.Random(seed * 1_000_003 + 13)
        h = Hypergraph(15, 3, sorted(rng.sample(list(combinations(range(1, 16), 3)), 400)))
        cert = extract_homogeneous(h, 3, seed=seed, restarts=2)
        assert len(cert.subgraph) == size
        assert len(cert.witnesses) == witnesses
        text = json.dumps(cert.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("seed, size, witnesses, digest", [
        (0, 328, 2296, "26ff267d95389d0c"),
        (1, 1, 0, "0e6b56617f91bcbb"),
    ])
    def test_pinned_with_three_petals_on_the_benchmark_input_shape(
            self, seed, size, witnesses, digest, monkeypatch):
        # the input of `test_pinned_on_the_benchmark_input_shape` with s = 3:
        # hundreds of bad edges leave one at a time, and seed 1 cuts both
        # restarts down to a single edge; each restart builds one index, and
        # the check of the winner one more
        builds = []

        class Counted(_MaskIndex):
            def __init__(self, *args):
                builds.append(len(args[0]))
                super().__init__(*args)

        monkeypatch.setattr(homogeneous, "_MaskIndex", Counted)
        rng = random.Random(seed * 1_000_003 + 13)
        h = Hypergraph(30, 3, sorted(rng.sample(list(combinations(range(1, 31), 3)), 1500)))
        cert = extract_homogeneous(h, 3, seed=seed, restarts=2)
        assert len(builds) == 3
        assert len(cert.subgraph) == size
        assert len(cert.witnesses) == witnesses
        text = json.dumps(cert.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_tied_classes_keep_the_first_in_canonical_order(self):
        # two 3-edge sunflowers on disjoint vertices, one with center {1}
        # and one with center {8, 9}; when a partition makes all six edges
        # rainbow, the two pattern classes tie, with patterns {(), P(1)} and
        # {(), P(8, 9)} for the projection P
        star = ((1, 2, 5), (1, 3, 6), (1, 4, 7))
        book = ((8, 9, 10), (8, 9, 11), (8, 9, 12))
        h = Hypergraph(12, 3, star + book)
        tied = disagree = 0
        for seed in range(40):
            cert = extract_homogeneous(h, 2, seed=seed, restarts=1)
            part = {v: p for p, vs in enumerate(cert.partition, start=1) for v in vs}
            if any(len({part[v] for v in e}) < 3 for e in star + book):
                continue
            tied += 1
            pats = {star: ((), (part[1],)), book: ((), tuple(sorted((part[8], part[9]))))}
            kept = min(pats, key=pats.get)
            assert cert.subgraph.edges == kept, seed
            # with one bit per part mask, integer order puts {(2,)} (bit 2)
            # before {(1, 2)} (bit 3), against `sorted_sets`
            as_int = {cls: sum(1 << mask_of(m) for m in p) for cls, p in pats.items()}
            disagree += min(as_int, key=as_int.get) != kept
        assert tied > 10 and disagree > 0

    @pytest.mark.parametrize("restarts", [0, 1, 2, 8])
    def test_one_check_per_extraction(self, restarts, monkeypatch):
        # the winner is checked once, whatever the number of restarts; with
        # none, the winner is the one-edge fallback
        calls = []
        check = homogeneous.is_homogeneous

        def spy(sub, s, parts):
            calls.append(sub)
            return check(sub, s, parts)

        monkeypatch.setattr(homogeneous, "is_homogeneous", spy)
        h = random_hypergraph(random.Random(77), n=10, k=3, max_edges=40)
        cert = extract_homogeneous(h, 2, seed=3, restarts=restarts)
        assert calls == [cert.subgraph]
        assert check(cert.subgraph, 2, cert.partition).ok
        if restarts == 0:
            assert cert.subgraph.edges == h.edges[:1]

    def test_an_invalid_winner_is_refused(self, monkeypatch):
        # a refinement that keeps every rainbow edge hands the check a
        # subgraph whose edges project to different patterns
        monkeypatch.setattr(homogeneous, "_refine", lambda k, edges, mask, parts, s: edges)
        rng = random.Random(13)
        h = Hypergraph(12, 3, rng.sample(list(combinations(range(1, 13), 3)), 40))
        with pytest.raises(AssertionError, match="pattern-mismatch"):
            extract_homogeneous(h, 2, seed=0, restarts=2)

    def test_validation(self):
        h, _ = complete_tripartite(2)
        with pytest.raises(ParameterError):
            extract_homogeneous(h, 1)
        with pytest.raises(ParameterError):
            extract_homogeneous(Hypergraph(4, 3, []), 2)


def random_partition(rng, n, k):
    """k parts covering 1..n, some possibly empty."""
    parts = [[] for _ in range(k)]
    for v in range(1, n + 1):
        parts[rng.randrange(k)].append(v)
    return tuple(tuple(p) for p in parts)


def recount_climb(h, rng):
    """The hill climb as first written: every trial part recounts the
    vertex's rainbow edges from scratch."""
    assign = {v: rng.randrange(h.k) for v in range(1, h.n + 1)}
    by_vertex = {v: [e for e in h.edges if v in e] for v in range(1, h.n + 1)}

    def local(v):
        return sum(1 for e in by_vertex[v] if len({assign[u] for u in e}) == h.k)

    while True:
        best_gain = 0
        best_move = None
        for v in range(1, h.n + 1):
            cur = assign[v]
            before = local(v)
            for p in range(h.k):
                if p == cur:
                    continue
                assign[v] = p
                gain = local(v) - before
                if gain > best_gain:
                    best_gain = gain
                    best_move = (v, p)
            assign[v] = cur
        if best_move is None:
            return assign
        assign[best_move[0]] = best_move[1]


class TestMaskIndex:
    """The index against the vertex-tuple functions it stands in for."""

    def test_patterns_centers_and_witnesses_match_the_reference(self):
        rng = random.Random(5150)
        checked = 0
        empty_centers = 0

        def compare(h, parts, s):
            nonlocal checked, empty_centers
            idx = _MaskIndex(h.edges, h.edge_masks, parts)
            patterns = []
            for i, e in enumerate(h.edges):
                # part masks decode with `vertices_of`, as the code does
                assert frozenset(vertices_of(idx.project(h.edge_masks[i]))) == project(e, parts)
                inters = intersection_structure(h, e)
                reference = frozenset(project(x, parts) for x in inters)
                assert IntersectionPattern.of(h.k, map(vertices_of, idx.pattern(i))).sets == reference
                patterns.append((idx.pattern(i), reference))
                centers = idx.centers(i)
                assert [c for c, _ in centers] == sorted(inters)
                for center, cm in centers:
                    assert cm == mask_of(center)
                    flower = find_sunflower(h, center, s, require_edge=e)
                    expected = None if flower is None else flower.petals
                    assert idx.petals(i, cm, s) == expected, (h.edges, e, center, s)
                    checked += 1
                    empty_centers += cm == 0
            return patterns

        for k in (2, 3, 4):
            for s in (2, 3):
                for _ in range(8):
                    h = random_hypergraph(rng, n=rng.randint(k + 1, 11), k=k, max_edges=30)
                    compare(h, random_partition(rng, h.n, k), s)
        # dense inputs: hundreds of edges, so each edge's meets split the
        # others into many classes, and disjoint edges give the empty center
        for trial, (n, k, size) in enumerate(((30, 3, 400), (20, 4, 300))):
            dense = random.Random(5160 + trial)
            h = Hypergraph(n, k, dense.sample(list(combinations(range(1, n + 1), k)), size))
            for s in (2, 3):
                patterns = compare(h, random_partition(dense, n, k), s)
                # two edges share a set of part masks exactly when they share
                # the reference pattern
                assert (len(set(patterns)) == len({p for p, _ in patterns})
                        == len({ref for _, ref in patterns}) > 1)
        # s = 4: the petal search picks three petals beside the edge
        deep = random.Random(5170)
        for k in (3, 4):
            for _ in range(12):
                h = random_hypergraph(deep, n=deep.randint(k + 1, 11), k=k, max_edges=30)
                compare(h, random_partition(deep, h.n, k), 4)
        assert checked > 1000
        assert empty_centers > 0

    def test_meets_keep_each_meet_class_exactly(self):
        # the inputs of the reference test above, drawn in the same order
        rng = random.Random(5150)
        inputs = []
        for k in (2, 3, 4):
            for _ in range(16):
                h = random_hypergraph(rng, n=rng.randint(k + 1, 11), k=k, max_edges=30)
                inputs.append((h, random_partition(rng, h.n, k)))
        for trial, (n, k, size) in enumerate(((30, 3, 400), (20, 4, 300))):
            dense = random.Random(5160 + trial)
            h = Hypergraph(n, k, dense.sample(list(combinations(range(1, n + 1), k)), size))
            inputs.append((h, random_partition(dense, n, k)))
        for h, parts in inputs:
            masks = h.edge_masks
            idx = _MaskIndex(h.edges, masks, parts)
            for i, mi in enumerate(masks):
                others = ((1 << len(h)) - 1) ^ (1 << i)
                covered = 0
                for m, bits in idx.meets[i].items():
                    assert bits == sum(1 << j for j, mj in enumerate(masks)
                                       if j != i and mj & mi == m)
                    assert not bits & covered
                    covered |= bits
                    assert idx.petals(i, m, 2) is not None
                assert covered == others

    def test_climb_matches_the_recount_rule(self):
        rng = random.Random(8080)
        for trial in range(30):
            k = (2, 3, 4)[trial % 3]
            h = random_hypergraph(rng, n=rng.randint(k + 1, 14), k=k, max_edges=60)
            climbed = _climb_partition(h, random.Random(trial), _edges_through(h))
            assert climbed == recount_climb(h, random.Random(trial))
        # dense inputs: each move (8 and 4 here) updates the counts of every
        # co-member through a hundred or more edges
        for trial, (n, k, size) in enumerate(((30, 3, 1500), (20, 4, 1000))):
            rng = random.Random(4040 + trial)
            h = Hypergraph(n, k, rng.sample(list(combinations(range(1, n + 1), k)), size))
            climbed = _climb_partition(h, random.Random(trial), _edges_through(h))
            assert climbed == recount_climb(h, random.Random(trial))


def rebuild_refine(k, edges, mask, parts, s, drops):
    """`_refine` as first written: each step builds a new index of the edges
    left and rescans them from the first; `drops` counts the steps by kind."""
    while edges:
        idx = _MaskIndex(edges, [mask[e] for e in edges], parts)
        groups = {}
        for i, e in enumerate(edges):
            groups.setdefault(idx.pattern(i), []).append(e)
        if len(groups) > 1:
            size = max(len(g) for g in groups.values())
            first = min((key for key, g in groups.items() if len(g) == size),
                        key=lambda pat: IntersectionPattern.of(
                            k, map(vertices_of, pat)).sorted_sets())
            drops["class"] += 1
            edges = groups[first]
            continue
        pattern = IntersectionPattern.of(k, map(vertices_of, next(iter(groups))))
        if not pattern.is_closed:
            drops["closure"] += 1
            edges = edges[:-1]
            continue
        if s > 2:
            bad = next((e for i, e in enumerate(edges)
                        if any(idx.petals(i, cm, s) is None for cm in idx.meets[i])),
                       None)
            if bad is not None:
                drops["bad"] += 1
                edges = [e for e in edges if e != bad]
                continue
        break
    return edges


class TestRefine:
    """The in-place refinement against the rebuild-per-step reference."""

    # four codewords pairwise agreeing in exactly one coordinate: as edges on
    # three parts of two vertices, every edge meets the others in one vertex
    # of each part, a pattern without the empty meet, which is not closed
    CODE = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))

    def planted(self, rng, k):
        """Random rainbow edges on k small parts, plus the code on the last
        three parts (behind a hub vertex of the first part when k = 4)."""
        parts, v = [], 1
        for size in (rng.randint(2, 3) for _ in range(k)):
            parts.append(tuple(range(v, v + size)))
            v += size
        pool = list(product(*parts))
        edges = set(rng.sample(pool, rng.randint(0, len(pool) // 3)))
        hub = parts[0][:1] if k == 4 else ()
        edges |= {hub + tuple(parts[p - 3][c] for p, c in enumerate(w)) for w in self.CODE}
        h = Hypergraph(v - 1, k, sorted(edges))
        return h, tuple(parts), list(h.edges)

    def climbed(self, rng, n, k, size):
        """A dense random graph, cut to its rainbow edges under a climbed
        partition, as `extract_homogeneous` does."""
        h = Hypergraph(n, k, rng.sample(list(combinations(range(1, n + 1), k)), size))
        assign = _climb_partition(h, rng, _edges_through(h))
        parts = tuple(tuple(v for v in range(1, n + 1) if assign[v] == p) for p in range(k))
        return h, parts, [e for e in h.edges if len({assign[v] for v in e}) == k]

    def test_drop_matches_a_fresh_index(self):
        def by_edge(idx, i):
            return {m: {idx.edges[j - 1] for j in vertices_of(bits & idx.live)}
                    for m, bits in idx.meets[i].items()}

        rng = random.Random(2727)
        drops = 0
        for trial in range(40):
            k = (3, 4)[trial % 2]
            h = random_hypergraph(rng, n=rng.randint(k + 1, 10), k=k, max_edges=30)
            parts = random_partition(rng, h.n, k)
            idx = _MaskIndex(h.edges, h.edge_masks, parts)
            while idx.live:
                live = [j - 1 for j in vertices_of(idx.live)]
                before = {i: set(idx.meets[i]) for i in live}
                size = rng.choice((1, 1, 1, 2, len(live) // 2))
                gone = rng.sample(live, min(len(live), max(size, 1)))
                lost = idx.drop(sum(1 << j for j in gone))
                drops += 1
                left = [i for i in live if i not in gone]
                assert sorted(lost) == [i for i in left if set(idx.meets[i]) != before[i]]
                fresh = _MaskIndex([h.edges[i] for i in left], [h.edge_masks[i] for i in left],
                                   parts)
                for pos, i in enumerate(left):
                    assert by_edge(idx, i) == by_edge(fresh, pos)
        assert drops > 200
        # the last edge disjoint from (1, 2, 3) leaves, with as many edges
        # left as (1, 2, 3) meets, plus itself: its empty meet empties
        edges = ((1, 2, 3), (1, 4, 5), (2, 6, 7), (8, 9, 10))
        idx = _MaskIndex(edges, [mask_of(e) for e in edges], ((1,), (2,), (3,)))
        assert idx.reach == 2
        assert idx.drop(1 << 3) == [0] and 0 not in idx.meets[0]

    def test_kept_edges_match_the_rebuild_per_step_reference(self):
        rng = random.Random(3131)
        inputs = [(self.planted(rng, (3, 4)[t % 2]), (2, 3, 4)[t // 2 % 3]) for t in range(60)]
        # small inputs, where a drop often leaves an edge meeting every other
        # edge, so that its empty meet empties
        for t in range(60):
            k = (3, 4)[t % 2]
            n = rng.randint(k + 1, 10)
            inputs.append((self.climbed(rng, n, k, rng.randint(2, min(comb(n, k), 30))),
                           (2, 3, 4)[t // 2 % 3]))
        # long runs of bad-edge drops, down to a few edges
        for n, k, size, s in ((15, 3, 400, 3), (15, 3, 400, 4), (15, 3, 300, 3),
                              (18, 3, 500, 3), (16, 4, 1200, 3), (12, 4, 400, 4)):
            inputs.append((self.climbed(rng, n, k, size), s))
        total = Counter()
        seen = set()
        for (h, parts, rainbow), s in inputs:
            mask = dict(zip(h.edges, h.edge_masks))
            drops = Counter()
            expected = rebuild_refine(h.k, rainbow, mask, parts, s, drops)
            assert _refine(h.k, rainbow, mask, parts, s) == expected, (h.edges, parts, s)
            total += drops
            seen.add((h.k, s))
        assert seen == {(k, s) for k in (3, 4) for s in (2, 3, 4)}
        assert total["class"] > 100 and total["closure"] > 10 and total["bad"] > 100, total
