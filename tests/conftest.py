"""Shared generators and helpers for the test suite.

Everything here is deterministic given the caller's Random instance, so
tests stay reproducible across runs and thread counts.
"""

import random
from itertools import combinations, permutations

from deltasys import (BudgetExceeded, ExtremalResult, FormatError, Hypergraph,
                      NodeCounter, SunflowerCluster, check_cluster, mask_of)
from deltasys.cli import main as cli_main
from deltasys.extremal import _nontrivial_kills, conflict_kills
from deltasys.hypergraph import Meeting, check_order, meet


def random_hypergraph(rng, n=None, k=None, max_edges=40):
    """Uniform hypergraph with a random edge sample; n defaults to 4..12."""
    if n is None:
        n = rng.randint(4, 12)
    if k is None:
        k = rng.choice((3, 4))
    k = max(1, min(k, n - 1))
    pool = list(combinations(range(1, n + 1), k))
    m = rng.randint(1, min(len(pool), max_edges))
    return Hypergraph(n, k, rng.sample(pool, m))


def reference_parse_hypergraph(text):
    """The text-format loader as it was before it checked whole columns,
    kept as the differential oracle of `parse_hypergraph`.

    Line by line: strip, skip blanks and comments, convert every token with
    int, then check arity, repeated vertex, range and duplicate, and sort
    the edge. After the last line the vertex cap is checked; the masks are
    built one edge at a time with `mask_of`.
    """
    header = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = list(map(int, line.split()))
        except ValueError:
            raise FormatError(lineno, f"non-integer token in {line!r}")
        if header is None:
            if len(values) != 2:
                raise FormatError(lineno, "header must be exactly two integers: n k")
            n, k = values
            if n < 1 or not 1 <= k <= n:
                raise FormatError(lineno, f"invalid header n={n} k={k}")
            header = (n, k)
            continue
        n, k = header
        if len(values) != k:
            raise FormatError(lineno, f"edge has {len(values)} vertices, expected {k}")
        if len(set(values)) != k:
            raise FormatError(lineno, "repeated vertex within an edge")
        edge = tuple(sorted(values))
        if edge[0] < 1 or edge[-1] > n:
            v = next(v for v in values if not 1 <= v <= n)
            raise FormatError(lineno, f"vertex {v} out of range 1..{n}")
        if edge in seen:
            raise FormatError(lineno, f"duplicate edge {edge}")
        seen.add(edge)
        edges.append(edge)
    if header is None:
        raise FormatError(1, "missing header line 'n k'")
    n, k = header
    check_order(n, k)
    edges.sort()
    h = Hypergraph.__new__(Hypergraph)
    h.n, h.k, h.edges = n, k, tuple(edges)
    h.edge_masks = tuple(map(mask_of, h.edges))
    h._edge_set = frozenset(h.edges)
    return h


# the benchmark's two `find-nontrivial` jobs in `certify`: name -> (n, k,
# members, size t, wise d, salt)
CERTIFY_RANDOM_SHAPES = {"nontrivial-3g": (10, 3, 60, 5, 3, 1),
                         "nontrivial-4g": (10, 4, 200, 6, 3, 2)}


def certify_random_graph(n, k, size, seed, salt):
    """`size` distinct k-subsets of 1..n, drawn as the benchmark draws the
    input of a `find-nontrivial` job at `seed`."""
    rng = random.Random(seed * 1_000_003 + salt)
    return Hypergraph(n, k, rng.sample(list(combinations(range(1, n + 1), k)), size))


def reference_narrow(meeting, out, picked, s, d):
    """`Meeting.narrow` as it was before the kernel carried its meets: the
    members of `out` that meet the meet of member s with each
    min(|picked|, d-2) members of `picked`, rebuilt from the masks on every
    call. Kept as the oracle of the carried narrowing, and as the narrowing
    of `reference_nontrivial_search_masks`."""
    x = meeting.masks[s]
    r = min(d - 2, len(picked))
    if not r:
        return out & meeting[x]
    for sub in combinations(picked, r):
        y = x
        for i in sub:
            y &= meeting.masks[i]
        out &= meeting[y]
    return out


def reference_nontrivial_search_masks(vmasks, t, d, counter):
    """The nontrivial-subfamily kernel as it was before it branched on the
    core vertex fewest candidates miss, kept as the differential oracle of
    `nontrivial_search_masks`.

    The core branches on the lowest common vertex, a branch ends when some
    common vertex lies in every candidate, and every child is visited and
    ticked. Same witness contract: on FOUND, the lexicographically first
    family over the caller's list.
    """
    m = len(vmasks)
    if m < t:
        return None
    full = (1 << m) - 1
    meeting = Meeting(vmasks)
    holders, kept = meeting.holders, meeting.kept

    def narrow(out, picked, s, d):
        return reference_narrow(meeting, out, picked, s, d)

    def step(chosen, common, cand):
        counter.tick()
        need = t - len(chosen)
        if not need:
            return None if common else chosen
        if cand.bit_count() < need:
            return None
        if common:
            if kept(common, cand):
                return None
            miss = cand & ~holders[(common & -common).bit_length()]
            rest = miss
            while rest:
                low = rest & -rest
                rest ^= low
                left = cand & ~(miss & (low - 1))
                if left.bit_count() < need:
                    return None
                b = low.bit_length() - 1
                hit = step(chosen + (b,), common & vmasks[b],
                           narrow(left & ~low, chosen, b, d))
                if hit:
                    return hit
            return None
        if need >= 3:
            colours = 0
            left = cand
            while left:
                colours += 1
                if colours == need:
                    break
                q = left
                while q:
                    low = q & -q
                    left ^= low
                    q &= ~meeting[vmasks[low.bit_length() - 1]]
            else:
                return None
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            hit = step(chosen + (j,), 0, narrow(rest, chosen, j, d))
            if hit:
                return hit
            if rest.bit_count() < need:
                return None
        return None

    counter.tick()
    if meet(vmasks):
        return None
    prefix = ()
    witness = None
    cand, common = full, -1
    for pos in range(t):
        rest = cand if witness is None else cand & ((1 << witness[pos]) - 1)
        while rest:
            low = rest & -rest
            rest ^= low
            above = cand & ~((low << 1) - 1)
            if above.bit_count() < t - pos - 1:
                break
            b = low.bit_length() - 1
            hit = step(prefix + (b,), common & vmasks[b], narrow(above, prefix, b, d))
            if hit:
                witness = sorted(hit)
                break
        if witness is None:
            return None
        b = witness[pos]
        cand = narrow(cand & ~((2 << b) - 1), prefix, b, d)
        common &= vmasks[b]
        prefix += (b,)
    return prefix


def random_blocks(rng, host, part_sizes):
    verts = list(host)
    rng.shuffle(verts)
    blocks = []
    at = 0
    for size in part_sizes:
        blocks.append(tuple(sorted(verts[at:at + size])))
        at += size
    return tuple(blocks)


def random_semi_cluster(rng, part_sizes, group_sizes, pool_size=6):
    """Semi system whose groups may share residue vertices with each other.

    Residues inside one group are always pairwise disjoint (that is what
    makes the group a sunflower over the host), but across groups they are
    drawn from a small shared pool most of the time, so later groups
    collide with earlier ones and selection has to work around it.
    Returns (cluster, n).
    """
    k = sum(part_sizes)
    host = tuple(range(1, k + 1))
    blocks = random_blocks(rng, host, part_sizes)
    pool = list(range(k + 1, k + 1 + pool_size))
    fresh = k + 1 + pool_size
    groups = []
    for block, count in zip(blocks, group_sizes):
        center = tuple(v for v in host if v not in block)
        need = len(block)
        group = []
        avail = pool[:]
        rng.shuffle(avail)
        for _ in range(count):
            if len(avail) >= need and rng.random() < 0.8:
                residue = [avail.pop() for _ in range(need)]
            else:
                residue = list(range(fresh, fresh + need))
                fresh += need
            group.append(tuple(sorted(center + tuple(residue))))
        groups.append(tuple(group))
    return SunflowerCluster(host, blocks, tuple(groups)), fresh - 1


def random_full_cluster(rng, part_sizes, group_sizes):
    """Cluster whose residues are globally disjoint; d = sum(group_sizes).

    Returns (cluster, n).
    """
    k = sum(part_sizes)
    host = tuple(range(1, k + 1))
    blocks = random_blocks(rng, host, part_sizes)
    nxt = k + 1
    groups = []
    for block, count in zip(blocks, group_sizes):
        center = tuple(v for v in host if v not in block)
        group = []
        for _ in range(count):
            residue = tuple(range(nxt, nxt + len(block)))
            nxt += len(block)
            group.append(tuple(sorted(center + residue)))
        groups.append(tuple(group))
    return SunflowerCluster(host, blocks, tuple(groups)), nxt - 1


def block_shapes(k):
    """Every ordered way to cut a k-set's size into at least two blocks."""

    def rec(rest):
        if rest == 0:
            return [()]
        return [(x,) + tail for x in range(1, rest + 1) for tail in rec(rest - x)]

    return [shape for shape in rec(k) if len(shape) >= 2]


def forms_cluster(edges, part_sizes, d):
    """Do these edges, all of them, form a disjoint cluster? Plain checks.

    Tries each edge as the host and each ordered partition of the host with
    the given block sizes; every other edge goes to the block whose
    complement equals its meet with the host, and `check_cluster` decides.
    """
    if len(edges) != d + 1:
        return False
    cuts = [sum(part_sizes[:i]) for i in range(len(part_sizes) + 1)]
    for host in edges:
        petals = [e for e in edges if e != host]
        for order in permutations(host):
            blocks = [tuple(sorted(order[a:b])) for a, b in zip(cuts, cuts[1:])]
            centers = [set(host) - set(b) for b in blocks]
            groups = [[e for e in petals if set(e) & set(host) == c] for c in centers]
            if sum(map(len, groups)) == len(petals) and all(groups) and check_cluster(
                    SunflowerCluster(host, tuple(blocks), tuple(map(tuple, groups))), d).ok:
                return True
    return False


def conflict_list(kills):
    """The conflicts a `conflict_kills` table files, each as a bitmask over
    candidate positions, in filing order; None for no table."""
    if kills is None:
        return None
    out = []
    for e, table in enumerate(kills):
        for rest, last in table.items():
            while last:
                low = last & -last
                last ^= low
                out.append(rest | 1 << e | low)
    return out


def labelled_max_avoiding(n, k, config, budget=None):
    """Every largest configuration-free family through the edge 1..k, labelled.

    The search `max_avoiding` ran before orbital branching, kept as its
    oracle. It forces the first edge 1..k and nothing else, so it meets
    every relabelling of a family that fixes that edge. Each node takes the
    lowest live candidate or leaves it out, and a branch is cut only when it
    cannot reach the incumbent, so every maximum family through 1..k is
    reported. Table kills come from a table keyed by each conflict's two
    highest members: members arrive in index order, so a conflict's highest
    member is the one it kills once the rest are chosen.
    """
    cand = list(combinations(range(1, n + 1), k))
    masks = [mask_of(e) for e in cand]
    total = len(cand)
    counter = NodeCounter(budget)
    meeting = Meeting(masks)

    def killed(chosen_mask, live):
        dead = 0
        if conflicts is not None:
            for rest, kill in kills[chosen[-1]].items():
                if chosen_mask & rest == rest:
                    dead |= kill
        elif len(chosen) + 1 >= config.t:
            dead = _nontrivial_kills(masks, chosen_mask, chosen[-1], live, config.t,
                                     config.d, meeting, counter)
        return dead

    star_idx = [i for i, e in enumerate(cand) if e[0] == 1]
    best = len(star_idx)
    found = {frozenset(star_idx): tuple(cand[i] for i in star_idx)}
    chosen = []
    exact = True

    def record():
        nonlocal best
        size = len(chosen)
        if size > best:
            best = size
            found.clear()
        if size == best:
            found.setdefault(frozenset(chosen), tuple(cand[i] for i in chosen))

    def dfs(live, chosen_mask):
        counter.tick()
        if len(chosen) + live.bit_count() < best:
            return
        if not live:
            record()
            return
        low = live & -live
        pos = low.bit_length() - 1
        rest = live ^ low
        chosen.append(pos)
        dfs(rest & ~killed(chosen_mask | low, rest), chosen_mask | low)
        chosen.pop()
        dfs(rest, chosen_mask)

    try:
        conflicts = conflict_list(conflict_kills(masks, config, meeting, counter))
        kills = [{} for _ in range(total)]
        for s in conflicts or ():
            c = s.bit_length() - 1
            e = (s ^ 1 << c).bit_length() - 1
            rest = s ^ 1 << c ^ 1 << e
            kills[e][rest] = kills[e].get(rest, 0) | 1 << c
        chosen.append(0)
        live = (1 << total) - 2
        dfs(live & ~killed(1, live), 1)
    except BudgetExceeded:
        exact = False
    return ExtremalResult(n, k, config, best, tuple(sorted(found.values())), counter.nodes,
                          exact)


def labelled_images(n, k, families):
    """Every relabelling of the families that holds the edge 1..k, sorted.

    A family given by one member of each isomorphism class expands to every
    labelled family through 1..k in those classes, which is what the
    labelled search reports.
    """
    forced = tuple(range(1, k + 1))
    out = set()
    for fam in families:
        for perm in permutations(range(1, n + 1)):
            image = tuple(sorted(tuple(sorted(perm[v - 1] for v in e)) for e in fam))
            if forced in image:
                out.add(image)
    return tuple(sorted(out))


def run_cli(argv, capsys):
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr().out
    return code, out
