"""Self-test of the benchmark itself, on tiny inputs.

    python3 bench/selftest.py

Checks that the tracer reaches every call site, that kernel nodes are
attributed exactly, that tampered answers count as failures, that runs are
deterministic, that BENCHMARK.json names exactly the metrics run.py prints,
and that seed 0 reproduces the baseline node counts (the one slow test,
about half a minute).
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

import run
import workloads
from spans import DRIVERS, KERNELS, Tracer

# functions each workload must reach, set-up included
REACHED = {
    "certify": ("cli.main", "hgio.load_hypergraph", "constructions.verify_counterexample",
                "constructions.build_counterexample", "constructions.build_triple_system",
                "constructions.find_perfect_matching", "hypergraph.max_codegree2",
                "hypergraph.codegree_histogram", "intersecting.find_nontrivial_subfamily",
                "intersecting.nontrivial_search_masks", "intersecting.check_nontrivial",
                "search.default_budget"),
    "extremal": ("cli.main", "extremal.max_avoiding", "intersecting.nontrivial_search_masks",
                 "sunflowers.cluster_search_masks", "search.default_budget"),
    "graphs": ("cli.main", "hgio.load_hypergraph", "homogeneous.extract_homogeneous",
               "homogeneous.is_homogeneous", "sunflowers.find_sunflower",
               "patterns.intersection_structure", "patterns.project",
               "hypergraph.Hypergraph.restrict", "hypergraph.weight_identity",
               "hypergraph.edge_weight", "hypergraph.codegree", "hypergraph.shadow"),
}

# ROADMAP baseline at seed 0: per-job nodes
BASELINE = {"cx-15-5": 516_766, "cx-27-4": 2_154_521, "cx-15-6": 3_908_169,
            "simplex-7-3": 2_397_726, "avd-6-3": 747_110}


WORKROOT = ""


def setUpModule():
    global WORKROOT
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    WORKROOT = tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_out")


def tearDownModule():
    shutil.rmtree(WORKROOT, ignore_errors=True)


def run_main(*argv: str) -> dict:
    """run.main in this process; returns its last stdout line as JSON."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(list(argv))
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def tiny(workload: str, seed: int = 0, tracer: Tracer | None = None):
    cli, jobs, _ = run.set_up(workload, seed, "tiny", WORKROOT, tracer)
    return cli, jobs


class TracerTest(unittest.TestCase):
    def test_every_layer_function_records_spans(self):
        for workload, wanted in REACHED.items():
            with self.subTest(workload=workload):
                tracer = Tracer()
                cli, jobs = tiny(workload, tracer=tracer)
                lo = len(tracer.start)
                tracer.install()
                try:
                    _, outcomes, _ = run.run_pass(cli, jobs, None, tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual([o.problems for o in outcomes], [[]] * len(jobs))
                seen = {tracer.names[f] for f in tracer.fn}
                self.assertEqual(set(wanted) - seen, set())
                # node attribution and kernel nesting add problems when broken
                run.span_checks(tracer, lo, len(tracer.start), outcomes)
                self.assertEqual([o.problems for o in outcomes], [[]] * len(jobs))

    def test_kernel_spans_nest_in_their_driver(self):
        tracer = Tracer()
        cli, jobs = tiny("extremal")
        tracer.install()
        try:
            run.run_pass(cli, jobs, None, tracer)
        finally:
            tracer.uninstall()
        kernels = [i for i, f in enumerate(tracer.fn) if tracer.names[f] in KERNELS]
        self.assertTrue(kernels)
        for i in kernels:
            up = [tracer.names[tracer.fn[a]] for a in tracer.ancestors(i)]
            self.assertEqual(up[0], "extremal.max_avoiding")
            self.assertEqual(up[-1], "cli.main")

    def test_rebinds_in_importing_modules_and_restores(self):
        import deltasys.cli
        import deltasys.extremal
        import deltasys.homogeneous
        import deltasys.intersecting

        bound = {(deltasys.extremal, "nontrivial_search_masks"),
                 (deltasys.extremal, "cluster_search_masks"),
                 (deltasys.homogeneous, "find_sunflower"),
                 (deltasys.homogeneous, "intersection_structure"),
                 (deltasys.cli, "verify_counterexample"),
                 (deltasys.intersecting, "nontrivial_search_masks")}
        before = {key: getattr(*key) for key in bound}
        tracer = Tracer()
        tracer.install()
        try:
            for mod, name in bound:
                self.assertIsNot(getattr(mod, name), before[mod, name], name)
                self.assertIs(getattr(mod, name).__wrapped__, before[mod, name])
        finally:
            tracer.uninstall()
        self.assertEqual({key: getattr(*key) for key in bound}, before)


class AnswerCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outcomes = {}
        for workload in workloads.WORKLOADS:
            cli, jobs = tiny(workload)
            _, outcomes, _ = run.run_pass(cli, jobs, None)
            for job, o in zip(jobs, outcomes):
                cls.outcomes[job.name] = (job, o)

    def assertRejected(self, name: str, tamper) -> None:
        job, outcome = self.outcomes[name]
        self.assertEqual(outcome.problems, [], name)
        report = copy.deepcopy(outcome.report)
        code = tamper(report)
        bad = run.Outcome(name, 0.0, outcome.code if code is None else code, report)
        run.check(job, bad)
        self.assertNotEqual(bad.problems, [], f"tampered {name} was accepted")

    def test_tampered_reports_count_as_failed(self):
        def swap_witness_edge(rep):
            rep["result"]["witness"][0] = rep["result"]["witness"][1]

        def claim_found(rep):
            rep["verdict"] = rep["result"]["status"] = "found"
            rep["result"]["witness"] = []
            return 0

        def bump(path):
            def tamper(rep):
                node = rep
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = node[path[-1]] + 1 if isinstance(node[path[-1]], int) \
                    else str(int(node[path[-1]]) + 1)
            return tamper

        def drop_petal(rep):
            rep["result"]["certificate"]["witnesses"][0]["petals"].pop()

        self.assertRejected("cx-15-5-m4", swap_witness_edge)
        self.assertRejected("cx-9-4", lambda rep: rep.update(verdict="refuted"))
        self.assertRejected("cx-9-4", lambda rep: 2)
        none_job = next(n for n in ("nontrivial-3g", "nontrivial-4g")
                        if self.outcomes[n][1].report["result"]["status"] == "none")
        self.assertRejected(none_job, claim_found)
        self.assertRejected("simplex-5-3", bump(("result", "max_size")))
        self.assertRejected("avd-5-3", lambda rep: rep["result"]["families"][0].pop())
        self.assertRejected("weight-3g", bump(("result", "weight_sum")))
        self.assertRejected("shadow-4g", lambda rep: rep["result"]["subsets"].pop())
        self.assertRejected("homogeneous-3g", drop_petal)
        self.assertRejected("homogeneous-3g", bump(("result", "size_bound")))

    def test_failed_job_counts_in_failed_share(self):
        job, outcome = self.outcomes["cx-9-4"]
        broken = workloads.Job(job.name, job.argv[:-1] + ("3",), job.check)
        cli = sys.modules["deltasys.cli"]
        _, outcomes, _ = run.run_pass(cli, [broken], None)
        self.assertNotEqual(outcomes[0].problems, [])


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_nodes_and_traced_reports_match(self):
        first = run_main("--workload", "certify", "--seed", "3", "--seconds", "0",
                         "--trace", "1", "--scale", "tiny")
        again = run_main("--workload", "certify", "--seed", "3", "--seconds", "0",
                         "--trace", "1", "--scale", "tiny")
        # traced passes are compared byte for byte with the untraced pass
        self.assertTrue(first["correct"] and again["correct"])
        nodes = {k: v["value"] for k, v in first["metrics"].items()
                 if k == "nodes" or k.endswith(".nodes")}
        self.assertEqual(nodes, {k: again["metrics"][k]["value"] for k in nodes})

    def test_second_seed_changes_inputs_and_still_passes(self):
        texts = []
        for seed in (0, 1):
            _, jobs = tiny("graphs", seed)
            with open(jobs[0].argv[1], encoding="utf-8") as fh:
                texts.append(fh.read())
            out = run_main("--workload", "graphs", "--seed", str(seed), "--seconds", "0",
                           "--scale", "tiny")
            self.assertEqual(out["failed"], 0)
        self.assertNotEqual(texts[0], texts[1])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_drivers_and_kernels_are_traced(self):
        import deltasys.cli  # noqa: F401  (traced_names reads loaded modules)
        from spans import traced_names
        names = set(traced_names())
        self.assertLessEqual(set(DRIVERS) | set(KERNELS), names)
        self.assertFalse(names & {"hypergraph.mask_of", "hypergraph.vertex_tuple"})


class BaselineTest(unittest.TestCase):
    def test_seed_zero_reproduces_baseline_nodes(self):
        seen = {}
        for workload in ("certify", "extremal"):
            cli, jobs, _ = run.set_up(workload, 0, "full", WORKROOT)
            jobs = [j for j in jobs if j.name in BASELINE]
            _, outcomes, _ = run.run_pass(cli, jobs, None)
            for o in outcomes:
                self.assertEqual(o.problems, [], o.name)
                seen[o.name] = run.report_nodes(o)
        self.assertEqual(seen, BASELINE)


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    unittest.main()
