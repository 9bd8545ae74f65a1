"""Run benchmark workloads against the deltasys CLI and print their metrics.

    python3 bench/run.py --workload certify --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35

The workload's jobs run in this process through `deltasys.cli.main(argv)`,
one at a time: a closed loop with a single client and no threads. Every
answer is checked by the benchmark's own code (checks.py). With --trace 0
the run times whole passes over the job list and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and prints
the per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402
from spans import DRIVERS, KERNELS, LAYERS, Tracer  # noqa: E402

# set-up runs at least SETUP_MIN times and, while it has taken under
# SETUP_BUDGET_S in all, up to SETUP_MAX times: quick set-ups are the noisiest
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 2.0
# short jobs repeat back to back within a pass until they have run this long,
# so their median rests on many samples
MIN_JOB_S = 0.25

# per-function rows of the traced run: (qualified name, fields)
FUNCTION_METRICS = (
    ("intersecting.nontrivial_search_masks", ("calls", "self_s", "nodes", "hit_ratio")),
    ("intersecting.find_nontrivial_subfamily", ("self_s",)),
    ("intersecting.check_nontrivial", ("calls", "self_s")),
    ("constructions.verify_counterexample", ("self_s",)),
    ("hypergraph.max_codegree2", ("self_s",)),
    ("hypergraph.codegree_histogram", ("self_s",)),
    ("constructions.build_counterexample", ("total_s",)),
    ("constructions.build_triple_system", ("total_s",)),
    ("constructions.find_perfect_matching", ("total_s",)),
    ("extremal.max_avoiding", ("self_s", "nodes_self")),
    ("sunflowers.cluster_search_masks", ("calls", "self_s", "nodes", "hit_ratio")),
    ("sunflowers.find_sunflower", ("calls", "self_s", "hit_ratio")),
    ("patterns.intersection_structure", ("calls", "self_s")),
    ("patterns.project", ("calls", "self_s")),
    ("hypergraph.Hypergraph.restrict", ("calls", "self_s")),
    ("homogeneous.extract_homogeneous", ("self_s",)),
    ("homogeneous.is_homogeneous", ("calls", "self_s")),
    ("hypergraph.weight_identity", ("total_s",)),
    ("hypergraph.edge_weight", ("calls", "self_s")),
    ("hypergraph.codegree", ("calls", "self_s")),
    ("hypergraph.shadow", ("self_s",)),
    ("hgio.load_hypergraph", ("calls", "total_s")),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "nodes": "count", "nodes_self": "count", "hit_ratio": "ratio",
         "self_s": "s", "total_s": "s", "s": "s"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = [(f"{fn}.{f}", UNITS[f]) for fn, fields in FUNCTION_METRICS for f in fields]
    out += [(f"layer.{layer}.{f}", UNITS[f]) for layer in LAYERS for f in ("calls", "self_s")]
    out += [(f"job.{job}.{f}", UNITS[f]) for w in workloads.WORKLOADS
            for job in workloads.job_names(w) for f in ("s", "nodes")]
    return out + [("nodes", "count"), ("extracted_edges", "count"),
                  ("search.budget_exhausted", "count"), ("trace.overhead_s", "s")]


END_TO_END = (("wall_s", "s"), ("job_s_geomean", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


@dataclass
class Outcome:
    """One job's run: seconds, exit code and report, plus what went wrong."""

    name: str
    seconds: float
    code: int | None
    report: dict | None
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    # calibrated seconds per measured second, from the ticks during this
    # job's runs in its pass (see calibration.py)
    scale: float = 1.0
    # peak resident set of the process right after this run
    peak_mb: float = 0.0

    def __post_init__(self):
        self.digest = digest(self.report, self.code)


def digest(report: dict | None, code: int | None) -> str:
    """Hash of the exit code and the report without its wall-clock fields."""
    rep = dict(report or {})
    rep.pop("timing", None)
    if isinstance(rep.get("result"), dict):
        rep["result"] = {k: v for k, v in rep["result"].items() if k != "runtime_seconds"}
    text = f"{code}:" + json.dumps(rep, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_job(cli, job: workloads.Job, meter: calibration.Meter) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    started, ticks = perf_counter(), meter.spent
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed job, not a failed benchmark
        return Outcome(job.name, perf_counter() - started, None, None,
                       [traceback.format_exc(limit=3)])
    seconds = perf_counter() - started - (meter.spent - ticks)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return Outcome(job.name, seconds, code, None,
                       [f"no JSON report (exit {code}): {err.getvalue().strip()[:200]}"])
    return Outcome(job.name, seconds, code, report,
                   peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def check(job: workloads.Job, outcome: Outcome) -> None:
    if outcome.problems or outcome.report is None:
        return
    try:
        outcome.problems.extend(job.check(outcome.report, outcome.code))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        outcome.problems.append(f"malformed report: {exc!r}")


def run_pass(cli, jobs, reference: dict[str, str | None] | None,
             tracer: Tracer | None = None, min_job_s: float = 0.0):
    """Every job in order, each repeated back to back until it has run for
    `min_job_s` (at least once). Returns (wall, outcomes, reference).

    Without a reference, each job's first run is checked by the benchmark's
    own code and becomes the reference. Every other run must reproduce its
    job's reference apart from timing.
    """
    outcomes = []
    started = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.set_job(job.name)
        block, spent = [], 0.0
        with calibration.Meter() as meter:
            while not spent or spent < min_job_s:
                block.append(run_job(cli, job, meter))
                if spent:
                    block[-1].report = None  # one stored report per job is enough
                spent += block[-1].seconds
        for o in block:
            o.scale = meter.scale()
        outcomes += block
    wall = perf_counter() - started
    if reference is None:
        reference = {}
        for job in jobs:
            first = next(o for o in outcomes if o.name == job.name)
            check(job, first)
            reference[job.name] = None if first.problems else first.digest
    for o in outcomes:
        if o.problems:
            continue
        if reference[o.name] is None:
            o.problems.append("repeats an answer that failed its check")
        elif o.digest != reference[o.name]:
            o.problems.append("report differs from the first run")
    return wall, outcomes, reference


def fresh_import():
    for key in [k for k in sys.modules if k == "deltasys" or k.startswith("deltasys.")]:
        del sys.modules[key]
    return importlib.import_module("deltasys.cli")


def set_up(workload: str, seed: int, scale: str, workroot: str, tracer: Tracer | None = None):
    """Import the package and write the workload's inputs.

    Returns (cli, jobs, seconds), where seconds is the measured set-up time.
    """
    started = perf_counter()
    cli = fresh_import()
    workdir = tempfile.mkdtemp(dir=workroot)
    if tracer is not None:
        tracer.install()
        tracer.set_job("setup")
    try:
        jobs = workloads.SETUP[workload](workdir, seed, scale)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cli, jobs, perf_counter() - started


def report_nodes(o: Outcome) -> int:
    res = (o.report or {}).get("result")
    return res.get("nodes", 0) if isinstance(res, dict) else 0


def budget_ended(o: Outcome) -> bool:
    res = (o.report or {}).get("result") or {}
    return (o.code == 2 or res.get("budget_exhausted") is True
            or res.get("status") == "budget-exhausted" or res.get("exact") is False)


def extracted(outcomes: list[Outcome]) -> int:
    return sum(o.report["result"]["size"] for o in outcomes
               if o.report and o.report.get("command") == "homogeneous-extract")


def span_checks(tracer: Tracer, lo: int, hi: int, outcomes: list[Outcome]) -> int:
    """Attribute kernel nodes per job and check them against the reports.

    For each job: the outermost driver span must carry the reported node
    count, the kernel spans' counter deltas may not exceed it, and outside
    max_avoiding (whose branch ticks are its own) they must account for all
    of it. Every kernel span must nest inside a driver span inside cli.main.
    Returns the driver-only nodes of max_avoiding (its nodes_self).
    """
    names = tracer.names
    by_job: dict[str, dict] = {o.name: {"driver": None, "kernel": 0} for o in outcomes}
    for i in range(lo, hi):
        name = names[tracer.fn[i]]
        acc = by_job[tracer.jobs[tracer.job[i]]]
        up = [names[tracer.fn[a]] for a in tracer.ancestors(i)]
        if name in KERNELS:
            acc["kernel"] += tracer.nodes[i]
            if not set(up) & set(DRIVERS) or up[-1] != "cli.main":
                acc.setdefault("nesting", name)
        elif name in DRIVERS and not set(up) & set(DRIVERS):
            acc["driver"] = (name, acc["driver"][1] + tracer.nodes[i]) if acc["driver"] \
                else (name, tracer.nodes[i])
    nodes_self = 0
    for o in outcomes:
        acc = by_job[o.name]
        if "nesting" in acc:
            o.problems.append(f"{acc['nesting']} span outside a driver span")
        if acc["driver"] is None:
            continue
        driver, nodes = acc["driver"]
        if nodes != report_nodes(o) or acc["kernel"] > nodes or (
                driver != "extremal.max_avoiding" and acc["kernel"] != nodes):
            o.problems.append(f"node attribution: report {report_nodes(o)}, driver {driver} "
                              f"{nodes}, kernels {acc['kernel']}")
        elif driver == "extremal.max_avoiding":
            nodes_self += nodes - acc["kernel"]
    return nodes_self


def function_metrics(tracer: Tracer, selfs: list[float], spans: list[range],
                     nodes_self: int) -> dict[str, float]:
    agg = {n: [0, 0.0, 0.0, 0, 0] for n in tracer.names}  # calls, self, total, nodes, hits
    for rng in spans:
        for i in rng:
            a = agg[tracer.names[tracer.fn[i]]]
            a[0] += 1
            a[1] += selfs[i]
            a[2] += tracer.end[i] - tracer.start[i]
            a[3] += tracer.nodes[i]
            a[4] += tracer.hit[i]
    out = {}
    for fn, fields in FUNCTION_METRICS:
        calls, self_s, total_s, nodes, hits = agg.get(fn, (0, 0.0, 0.0, 0, 0))
        values = {"calls": calls, "self_s": self_s, "total_s": total_s, "nodes": nodes,
                  "hit_ratio": hits / calls if calls else 0.0, "nodes_self": nodes_self}
        out.update({f"{fn}.{f}": values[f] for f in fields})
    for layer in LAYERS:
        rows = [a for n, a in agg.items() if n.split(".")[0] == layer]
        out[f"layer.{layer}.calls"] = sum(a[0] for a in rows)
        out[f"layer.{layer}.self_s"] = sum(a[1] for a in rows)
    return out


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def calibrated_sum(outcomes: list[Outcome]) -> float:
    return sum(o.seconds * o.scale for o in outcomes)


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def measure(args, workload: str, workroot: str) -> tuple[dict, list[list[Outcome]]]:
    """Untraced run: set-up several times, then passes for about --seconds."""
    setups, raw_setups = [], []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and sum(raw_setups) < SETUP_BUDGET_S):
        with calibration.Meter() as meter:
            cli, jobs, seconds = set_up(workload, args.seed, args.scale, workroot)
            seconds -= meter.spent
        setups.append(seconds * meter.scale())
        raw_setups.append(seconds)
    passes, walls, reference = [], [], None
    started = perf_counter()
    while True:
        wall, outcomes, reference = run_pass(cli, jobs, reference, min_job_s=MIN_JOB_S)
        passes.append(outcomes)
        walls.append(wall)
        if perf_counter() - started + statistics.median(walls) > args.seconds:
            break
    runs = [o for p in passes for o in p]
    per_job = {job.name: [o for o in runs if o.name == job.name] for job in jobs}
    cal = [statistics.median(o.seconds * o.scale for o in rs) for rs in per_job.values()]
    raw = [statistics.median(o.seconds for o in rs) for rs in per_job.values()]
    # read after the program's runs, not after the checks, whose oracles
    # allocate memory of their own; later passes only repeat the same jobs
    peak_mb = max(o.peak_mb for o in passes[0])
    metrics = {"wall_s": sum(cal), "job_s_geomean": geomean(cal), "peak_rss_mb": peak_mb,
               "setup_s": statistics.median(setups)}
    first = [rs[0] for rs in per_job.values()]
    info = {"passes": len(passes), "nodes": sum(map(report_nodes, first)),
            "extracted_edges": extracted(first),
            "raw": {"wall_s": sum(raw), "job_s_geomean": geomean(raw),
                    "setup_s": statistics.median(raw_setups)},
            "jobs": {name: {"s": c, "raw_s": r, "nodes": report_nodes(rs[0]),
                            "samples": [o.seconds for o in rs], "scales": [o.scale for o in rs]}
                     for (name, rs), c, r in zip(per_job.items(), cal, raw)}}
    return {"metrics": {k: (metrics[k], u) for k, u in END_TO_END}, "info": info}, passes


def measure_traced(args, workload: str, workroot: str,
                   tracer: Tracer) -> tuple[dict, list[list[Outcome]]]:
    """Traced run: traced set-up, then pairs of untraced and traced passes."""
    cli, jobs, _ = set_up(workload, args.seed, args.scale, workroot, tracer)
    setup_spans = range(0, len(tracer.start))
    passes, plain_walls, traced_walls, rows = [], [], [], []
    reference = None
    started = perf_counter()
    while True:
        wall, outcomes, reference = run_pass(cli, jobs, reference)
        passes.append(outcomes)
        plain_walls.append(calibrated_sum(outcomes))
        lo = len(tracer.start)
        tracer.install()
        try:
            wall, traced, _ = run_pass(cli, jobs, reference, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        traced_walls.append(calibrated_sum(traced))
        hi = len(tracer.start)
        rows.append((range(lo, hi), span_checks(tracer, lo, hi, traced)))
        if perf_counter() - started + 2 * wall > args.seconds:
            break
    selfs = tracer.self_times()
    per_pass = [function_metrics(tracer, selfs, [setup_spans, spans], ns) for spans, ns in rows]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    first = passes[0]
    for w in workloads.WORKLOADS:
        for job in workloads.job_names(w):
            # untraced passes are the even ones; each runs every job once
            plain = [o.seconds * o.scale for p in passes[0::2] for o in p if o.name == job]
            metrics[f"job.{job}.s"] = statistics.median(plain) if plain else 0.0
            metrics[f"job.{job}.nodes"] = sum(report_nodes(o) for o in first if o.name == job)
    metrics["nodes"] = sum(map(report_nodes, first))
    metrics["extracted_edges"] = extracted(first)
    metrics["search.budget_exhausted"] = sum(map(budget_ended, first))
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    units = dict(per_layer_names())
    return ({"metrics": {k: (metrics[k], units[k]) for k in units},
             "info": {"passes": len(passes), "spans": len(tracer.start)}}, passes)


def run_workload(args, workload: str, outdir: Path) -> dict:
    """Measure one workload, write its result file, print its metric lines;
    returns the summary that the last line of stdout reports."""
    workroot = tempfile.mkdtemp(prefix="work-", dir=outdir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            result, passes = measure(args, workload, workroot)
        else:
            result, passes = measure_traced(args, workload, workroot, tracer)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.problems]
    env = {"workload": workload, "seed": args.seed, "trace": args.trace,
           "scale": args.scale, "python": sys.version.split()[0],
           "cores": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
           "tick_s": calibration.tick_s()}
    record = {"env": env, **result["info"], "attempted": len(outcomes), "failed": len(failed),
              "failed_share": len(failed) / len(outcomes),
              "problems": {o.name: o.problems for o in failed},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    stem = f"{workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    with open(outdir / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(str(outdir / f"spans-{stem}.tsv.gz"))

    print("env " + json.dumps(env, sort_keys=True))
    for o in failed[:10]:
        print(f"FAILED {o.name}: {'; '.join(o.problems)[:500]}")
    shown = dict(result["metrics"])
    if not args.trace:
        shown.update({f"raw.{k}": (v, "s") for k, v in result["info"]["raw"].items()})
        shown["nodes"] = (result["info"]["nodes"], "count")
        shown["extracted_edges"] = (result["info"]["extracted_edges"], "count")
    shown["failed_share"] = (record["failed_share"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    return {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True,
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes for about this long, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the self-test only")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "deltasys" / "cli.py").is_file():
        print(f"bench: no deltasys sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # a node budget from the environment would change what the jobs mean
    os.environ.pop("DELTASYS_NODE_BUDGET", None)
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)

    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload, outdir)))
        return 0
    summaries = {w: run_workload(args, w, outdir) for w in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}.{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
