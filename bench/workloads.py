"""The benchmark's workloads: seeded inputs and the CLI jobs that read them.

A workload is a fixed list of jobs, one `deltasys` CLI command each. Its
inputs are generated from the workload seed and written to a work
directory; the program only ever sees those files and the argv. Every job
carries the check that decides whether its answer is right (see checks.py).

Two scales exist: "full" is what the benchmark measures, "tiny" is the same
job list shape on inputs small enough for the self-test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import checks

WORKLOADS = ("certify", "extremal", "graphs")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    # check(report, exit_code) -> list of problems; empty means correct
    check: Callable[[dict, int], list[str]]


def random_graph(n: int, k: int, size: int, seed: int, salt: int) -> list[tuple[int, ...]]:
    """`size` distinct k-subsets of 1..n, drawn uniformly from the seed."""
    rng = random.Random(seed * 1_000_003 + salt)
    return sorted(rng.sample(list(combinations(range(1, n + 1), k)), size))


def write_graph(path: str, n: int, k: int, edges) -> str:
    lines = [f"{n} {k}"] + [" ".join(map(str, e)) for e in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# --- certify ---------------------------------------------------------------

# (n, m) of the codegree-capped construction cx(n, m), verified in mode both
CX = {"full": ((9, 4), (15, 5), (27, 4), (15, 6)), "tiny": ((9, 4),)}
# the construction that is also searched with a smaller m, which refutes it
CX_REFUTE = (15, 5, 4)
# find-nontrivial on random graphs: (label, n, k, edges, size t, wise d, salt)
# A FOUND search stops at its first witness, so its work depends on where the
# seed puts one. On sparse 4-graphs it varies several hundredfold from seed
# to seed; on 200 of the 210 4-subsets of 10 points, by about a sixth.
NONTRIVIAL = {
    "full": (("nontrivial-3g", 10, 3, 60, 5, 3, 1),
             ("nontrivial-4g", 10, 4, 200, 6, 3, 2)),
    "tiny": (("nontrivial-3g", 8, 3, 24, 5, 3, 1),
             ("nontrivial-4g", 9, 4, 40, 5, 3, 2)),
}


def setup_certify(workdir: str, seed: int, scale: str) -> list[Job]:
    from deltasys.constructions import build_counterexample
    from deltasys.hgio import save_hypergraph

    paths: dict[tuple[int, int], str] = {}

    def cx(n: int, m: int) -> str:
        if (n, m) not in paths:
            paths[n, m] = os.path.join(workdir, f"cx-{n}-{m}.txt")
            save_hypergraph(build_counterexample(n, m, seed).system, paths[n, m])
        return paths[n, m]

    jobs = [Job(f"cx-{n}-{m}", ("verify-counterexample", cx(n, m), "--m", str(m)),
                checks.verified_counterexample(cx(n, m), m)) for n, m in CX[scale]]
    n, m, low = CX_REFUTE
    jobs.append(Job(f"cx-{n}-{m}-m{low}", ("verify-counterexample", cx(n, m), "--m", str(low)),
                    checks.refuted_counterexample(cx(n, m), low)))
    for label, n, k, size, t, d, salt in NONTRIVIAL[scale]:
        path = write_graph(os.path.join(workdir, f"{label}.txt"), n, k,
                           random_graph(n, k, size, seed, salt))
        jobs.append(Job(label, ("find-nontrivial", path, "--wise", str(d), "--size", str(t)),
                        checks.nontrivial_answer(path, t, d)))
    return jobs


# --- extremal --------------------------------------------------------------

# (label, argv tail, pinned max_size, forbidden-configuration checker spec);
# the seed does not enter: these are fixed grid points of the exact search
EXTREMAL = {
    "full": (("simplex-7-3", 7, 3, ("--config", "d-simplex", "--wise", "2"), 15,
              ("nontrivial", 3, 2)),
             ("avd-6-3", 6, 3, ("--config", "avd-system", "--a", "2,1", "--d", "2"), 10,
              ("cluster", (2, 1), 2)),
             ("nontriv-6-3-t6", 6, 3, ("--config", "nontrivial-intersecting", "--size", "6",
                                       "--wise", "2"), 10, ("nontrivial", 6, 2)),
             ("nontriv-6-3-t5", 6, 3, ("--config", "nontrivial-intersecting", "--size", "5",
                                       "--wise", "2"), 10, ("nontrivial", 5, 2))),
    # tiny values are not pinned; the check computes them by brute force
    "tiny": (("simplex-5-3", 5, 3, ("--config", "d-simplex", "--wise", "2"), None,
              ("nontrivial", 3, 2)),
             ("avd-5-3", 5, 3, ("--config", "avd-system", "--a", "2,1", "--d", "2"), None,
              ("cluster", (2, 1), 2)),
             ("nontriv-5-3-t4", 5, 3, ("--config", "nontrivial-intersecting", "--size", "4",
                                       "--wise", "2"), None, ("nontrivial", 4, 2))),
}


def setup_extremal(workdir: str, seed: int, scale: str) -> list[Job]:
    return [Job(label, ("extremal", "--n", str(n), "--k", str(k)) + tail,
                checks.extremal_answer(n, k, pinned, config))
            for label, n, k, tail, pinned, config in EXTREMAL[scale]]


# --- graphs ----------------------------------------------------------------

GRAPHS = {"full": {"3g": (30, 3, 1500), "4g": (30, 4, 4000)},
          "tiny": {"3g": (10, 3, 40), "4g": (10, 4, 60)}}


def setup_graphs(workdir: str, seed: int, scale: str) -> list[Job]:
    paths = {}
    for label, (n, k, size) in GRAPHS[scale].items():
        paths[label] = write_graph(os.path.join(workdir, f"graph-{label}.txt"), n, k,
                                   random_graph(n, k, size, seed, 10 + k))
    return [
        Job("homogeneous-3g", ("homogeneous-extract", paths["3g"], "--size", "2",
                               "--restarts", "2", "--seed", str(seed)),
            checks.homogeneous_answer(paths["3g"], 2)),
        Job("weight-4g", ("weight-check", paths["4g"]), checks.weight_answer(paths["4g"])),
        Job("weight-3g", ("weight-check", paths["3g"]), checks.weight_answer(paths["3g"])),
        Job("shadow-4g", ("shadow", paths["4g"], "--order", "1"),
            checks.shadow_answer(paths["4g"])),
    ]


SETUP = {"certify": setup_certify, "extremal": setup_extremal, "graphs": setup_graphs}


def job_names(workload: str) -> list[str]:
    """Job names of the full-scale workload, without generating its inputs."""
    if workload == "certify":
        n, m, low = CX_REFUTE
        return ([f"cx-{n}-{m}" for n, m in CX["full"]] + [f"cx-{n}-{m}-m{low}"]
                + [row[0] for row in NONTRIVIAL["full"]])
    if workload == "extremal":
        return [row[0] for row in EXTREMAL["full"]]
    return ["homogeneous-3g", "weight-4g", "weight-3g", "shadow-4g"]
