"""Shared generators and helpers for the test suite.

Everything here is deterministic given the caller's Random instance, so
tests stay reproducible across runs and thread counts.
"""

from itertools import combinations, permutations

from deltasys import Hypergraph, SunflowerCluster, check_cluster
from deltasys.cli import main as cli_main


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


def run_cli(argv, capsys):
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr().out
    return code, out
