"""End-to-end command-line behavior: exit codes, report schema, artifacts."""

import argparse
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from deltasys import (
    Hypergraph,
    KMFamily,
    SunflowerCluster,
    build_star,
    check_cluster,
    load_hypergraph,
    save_hypergraph,
    serialize_hypergraph,
)
import deltasys
from deltasys import Check, cli, constructions, search
from deltasys.cli import _build_parser
from conftest import random_semi_cluster, run_cli

REPORT_KEYS = {"schema", "command", "params", "checks", "result", "verdict", "timing"}


def report_of(out):
    data = json.loads(out)
    assert set(data) == REPORT_KEYS
    assert data["schema"] == 1
    return data


@pytest.fixture
def star5(tmp_path):
    path = tmp_path / "star5.txt"
    save_hypergraph(build_star(5, 3), path)
    return str(path)


@pytest.fixture
def star9(tmp_path):
    path = tmp_path / "star9.txt"
    save_hypergraph(build_star(9, 3), path)
    return str(path)


@pytest.fixture
def every_command(star9, tmp_path):
    """One argv tail per subcommand, each running to a definite answer."""
    semi, _ = random_semi_cluster(random.Random(1000), (2, 1), (2, 5))
    witness = tmp_path / "semi.json"
    witness.write_text(json.dumps(semi.to_json()))
    return {
        "shadow": [star9, "--order", "1"],
        "weight-check": [star9],
        "find-sunflower": [star9, "--center", "1", "--size", "3"],
        "find-avd": [star9, "--a", "2,1", "--d", "2"],
        "complete-semi": [str(witness), "--b", "1,1"],
        "find-nontrivial": [star9, "--size", "3", "--wise", "2"],
        "check-intersecting": [star9, "--wise", "2"],
        "classify-km": [star9],
        "build-steiner": ["--n", "7", "--lambda", "1"],
        "build-counterexample": ["--n", "9", "--m", "4"],
        "verify-counterexample": [star9, "--m", "4"],
        "extremal": ["--n", "5", "--k", "3", "--config", "d-simplex", "--wise", "2"],
        "stability-scan": [star9, "--epsilon", "0.0"],
        "homogeneous-extract": [star9, "--size", "2"],
    }


class TestShadow:
    def test_counts_subsets(self, star5, capsys):
        code, out = run_cli(["shadow", star5, "--order", "1"], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["count"] == 10
        assert rep["verdict"] == "ok"
        assert [1, 2] in rep["result"]["subsets"]

    def test_bad_order_is_an_input_error(self, star5, capsys):
        code, _ = run_cli(["shadow", star5, "--order", "7"], capsys)
        assert code == 3

    def test_missing_file(self, capsys):
        code, _ = run_cli(["shadow", "/nonexistent/h.txt", "--order", "1"], capsys)
        assert code == 3

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("5 3\n1 2\n")
        code, _ = run_cli(["shadow", str(bad), "--order", "1"], capsys)
        assert code == 3


class TestWeightCheck:
    def test_identity_verified(self, star9, capsys):
        code, out = run_cli(["weight-check", star9], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "verified"
        assert rep["checks"][0]["verdict"] == "pass"
        assert rep["checks"][0]["claim"]


class TestFindSunflower:
    def test_found_with_artifact(self, star9, tmp_path, capsys):
        outfile = tmp_path / "flower.json"
        code, out = run_cli(
            ["find-sunflower", star9, "--center", "1", "--size", "4",
             "--output", str(outfile)],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "found"
        saved = json.loads(outfile.read_text())
        assert saved["center"] == [1]
        assert len(saved["petals"]) == 4

    def test_no_witness_is_negative(self, star9, capsys):
        code, out = run_cli(["find-sunflower", star9, "--center", "1", "--size", "5"], capsys)
        assert code == 1
        assert report_of(out)["verdict"] == "none"


class TestFindAvd:
    def test_star_is_clean(self, star9, capsys):
        code, out = run_cli(["find-avd", star9, "--a", "2,1", "--d", "2"], capsys)
        assert code == 1
        rep = report_of(out)
        assert rep["verdict"] == "none"
        assert rep["result"]["nodes"] > 0

    def test_witness_artifact_round_trips(self, tmp_path, capsys):
        c = SunflowerCluster(
            (1, 2, 3), ((1, 2), (3,)), (((3, 4, 5),), ((1, 2, 6),))
        )
        hpath = tmp_path / "h.txt"
        save_hypergraph(Hypergraph(6, 3, c.all_edges), hpath)
        wpath = tmp_path / "witness.json"
        code, out = run_cli(
            ["find-avd", str(hpath), "--a", "2,1", "--d", "2",
             "--output", str(wpath)],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "found"
        found = SunflowerCluster.from_json(json.loads(wpath.read_text()))
        assert check_cluster(found, 2).ok

    def test_budget_exit(self, tmp_path, capsys):
        edges = [(1, 2, 3), (3, 4, 5), (1, 2, 6), (1, 2, 7), (3, 6, 7)]
        hpath = tmp_path / "h.txt"
        save_hypergraph(Hypergraph(7, 3, edges), hpath)
        code, out = run_cli(
            ["find-avd", str(hpath), "--a", "2,1", "--d", "2", "--budget", "1"],
            capsys,
        )
        assert code == 2
        assert report_of(out)["verdict"] == "budget-exhausted"


class TestCompleteSemi:
    def _write_semi(self, tmp_path, trial=0):
        rng = random.Random(1000 + trial)
        cluster, _ = random_semi_cluster(rng, (2, 1), (2, 5))
        path = tmp_path / "semi.json"
        path.write_text(json.dumps(cluster.to_json()))
        return path, cluster

    def test_completes_plain_witness_file(self, tmp_path, capsys):
        path, _ = self._write_semi(tmp_path)
        outfile = tmp_path / "full.json"
        code, out = run_cli(
            ["complete-semi", str(path), "--b", "1,2", "--output", str(outfile)],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "completed"
        done = SunflowerCluster.from_json(json.loads(outfile.read_text()))
        assert check_cluster(done, 3).ok
        assert done.group_sizes == (1, 2)

    def test_reads_witness_out_of_a_full_report(self, tmp_path, capsys):
        path, cluster = self._write_semi(tmp_path)
        report = {"result": {"witness": cluster.to_json()}, "verdict": "found"}
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(report))
        code, out = run_cli(["complete-semi", str(rpath), "--b", "1,1"], capsys)
        assert code == 0
        done = SunflowerCluster.from_json(report_of(out)["result"]["witness"])
        assert check_cluster(done, 2).ok

    def test_completes_the_cluster_find_avd_wrote(self, tmp_path, capsys):
        # find-avd writes one edge per group; asking for those sizes again
        # keeps them whole, although group 2 has fewer than the 3 edges the
        # greedy bound b_2 + a_1*b_1 asks for
        hpath = tmp_path / "seven.txt"
        save_hypergraph(Hypergraph(7, 3, [(1, 2, 3), (3, 4, 5), (1, 2, 6), (1, 2, 7),
                                          (3, 6, 7), (2, 4, 6), (1, 4, 7)]), hpath)
        avd = tmp_path / "avd.json"
        code, _ = run_cli(["find-avd", str(hpath), "--a", "2,1", "--d", "2",
                           "--output", str(avd)], capsys)
        assert code == 0
        found = SunflowerCluster.from_json(json.loads(avd.read_text()))
        assert found.group_sizes == (1, 1)
        code, out = run_cli(["complete-semi", str(avd), "--b", "1,1"], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "completed"
        done = SunflowerCluster.from_json(rep["result"]["witness"])
        assert check_cluster(done, 2).ok
        assert done == found

    def test_infeasible_request_is_an_input_error(self, tmp_path, capsys):
        path, _ = self._write_semi(tmp_path)
        # group 1 only has 2 candidates, so b=(2,...) needs more in group 2
        code, _ = run_cli(["complete-semi", str(path), "--b", "2,5"], capsys)
        assert code == 3

    def test_junk_witness_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        code, _ = run_cli(["complete-semi", str(path), "--b", "1,1"], capsys)
        assert code == 3

    def test_report_without_a_witness_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        path.write_text(json.dumps({"result": {"witness": None}, "verdict": "none"}))
        code = cli.main(["complete-semi", str(path), "--b", "1,1"])
        assert (code, *capsys.readouterr()) == (
            3, "", "deltasys: error: witness file does not hold a cluster object\n")


class TestFindNontrivial:
    def test_triangle_found(self, tmp_path, capsys):
        hpath = tmp_path / "h.txt"
        save_hypergraph(Hypergraph(5, 3, [(1, 2, 3), (1, 2, 4), (3, 4, 5)]), hpath)
        code, out = run_cli(["find-nontrivial", str(hpath), "--size", "3", "--wise", "2"], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["witness"] == [[1, 2, 3], [1, 2, 4], [3, 4, 5]]

    def test_star_has_none(self, star9, capsys):
        code, out = run_cli(["find-nontrivial", star9, "--size", "3", "--wise", "2"], capsys)
        assert code == 1
        assert report_of(out)["verdict"] == "none"


class TestCheckIntersecting:
    def test_star_verifies(self, star9, capsys):
        code, out = run_cli(["check-intersecting", star9, "--wise", "2"], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "verified"
        # a star is trivial: the hub hits every member
        nocommon = [c for c in rep["checks"] if c["name"] == "no-common-vertex"]
        assert nocommon[0]["verdict"] == "fail"

    def test_disjoint_pair_fails_with_witness(self, tmp_path, capsys):
        hpath = tmp_path / "h.txt"
        save_hypergraph(Hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)]), hpath)
        code, out = run_cli(["check-intersecting", str(hpath), "--wise", "2"], capsys)
        assert code == 1
        rep = report_of(out)
        assert rep["verdict"] == "failed"
        dwise = [c for c in rep["checks"] if c["name"] == "d-wise-intersecting"][0]
        assert dwise["verdict"] == "fail"
        assert dwise["witness"] == [[1, 2, 3], [4, 5, 6]]

    @pytest.fixture
    def family225(self, tmp_path):
        # 3-wise intersecting, no common vertex: the walk visits all
        # C(225, 2) prefixes
        edges = [e for e in combinations(range(1, 61), 4)
                 if len({1, 2, 3, 4}.intersection(e)) >= 3]
        hpath = tmp_path / "fam225.txt"
        save_hypergraph(Hypergraph(60, 4, edges), hpath)
        return str(hpath)

    def test_budget_exit(self, family225, capsys):
        code, out = run_cli(["check-intersecting", family225, "--wise", "3",
                             "--budget", "100"], capsys)
        assert code == 2
        rep = report_of(out)
        assert rep["verdict"] == "budget-exhausted"
        assert rep["result"] == {"status": "budget-exhausted", "nodes": 101}

    def test_default_budget_report_is_unchanged(self, family225, capsys):
        code, out = run_cli(["check-intersecting", family225, "--wise", "3"], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "verified"
        assert rep["checks"] == [
            {"claim": "every 3 members share a vertex",
             "name": "d-wise-intersecting", "verdict": "pass"},
            {"claim": "no single vertex lies in every member",
             "name": "no-common-vertex", "verdict": "pass"},
        ]
        assert rep["result"] == {"common_intersection": [], "nontrivial": True}


class TestClassifyKm:
    def test_star_is_ekr(self, tmp_path, capsys):
        hpath = tmp_path / "h.txt"
        save_hypergraph(build_star(7, 3), hpath)
        code, out = run_cli(["classify-km", str(hpath)], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["template"] == "EKR"
        assert rep["result"]["mapping"] == {"1": "1"} or rep["result"]["mapping"] == {"1": 1}
        assert [(c["name"], c["verdict"]) for c in rep["checks"]] == [("containment", "pass")]

    def test_template_that_misses_members_fails_containment(self, tmp_path, monkeypatch,
                                                           capsys):
        # the star through 1 on 7 points, placed in the star through 2: the
        # members without 2 lie outside it, so the command must say so
        hpath = tmp_path / "h.txt"
        save_hypergraph(build_star(7, 3), hpath)
        monkeypatch.setattr(cli, "classify_intersecting", lambda h: KMFamily("EKR", {1: 2}))
        code, out = run_cli(["classify-km", str(hpath)], capsys)
        rep = report_of(out)
        assert (code, rep["verdict"]) == (1, "failed")
        assert [(c["name"], c["verdict"]) for c in rep["checks"]] == [("containment", "fail")]

    def test_h0_reports_codegree_bound(self, tmp_path, capsys):
        from itertools import combinations

        edges = [e for e in combinations(range(1, 9), 3) if len(set(e) & {1, 2, 3}) >= 2]
        hpath = tmp_path / "h0.txt"
        save_hypergraph(Hypergraph(8, 3, edges), hpath)
        code, out = run_cli(["classify-km", str(hpath)], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["template"] == "H0"
        bound = [c for c in rep["checks"] if c["name"] == "codegree-bound"]
        assert bound and bound[0]["verdict"] == "pass"

    def test_non_intersecting_input_is_rejected(self, tmp_path, capsys):
        from itertools import combinations

        edges = list(combinations(range(1, 7), 3))
        hpath = tmp_path / "all6.txt"
        save_hypergraph(Hypergraph(6, 3, edges), hpath)
        code, _ = run_cli(["classify-km", str(hpath)], capsys)
        assert code == 3


class TestBuilders:
    def test_steiner_artifact_parses(self, tmp_path, capsys):
        outfile = tmp_path / "sts9.txt"
        code, out = run_cli(
            ["build-steiner", "--n", "9", "--lambda", "1", "--output", str(outfile)],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["size"] == 12
        h = load_hypergraph(outfile)
        assert len(h) == 12 and h.n == 9

    def test_steiner_inadmissible(self, capsys):
        code, _ = run_cli(["build-steiner", "--n", "8", "--lambda", "1"], capsys)
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["build-steiner", "--n", "9", "--lambda", "8"],
        ["build-steiner", "--n", "7", "--lambda", "6"],
        ["build-counterexample", "--n", "9", "--m", "9"],
    ], ids=" ".join)
    def test_multiplicity_above_n_minus_2_is_an_input_error(self, argv, capsys):
        # no pair lies in more than n-2 distinct triples
        code, out = run_cli(argv, capsys)
        assert code == 3 and not out

    def test_counterexample_artifact(self, tmp_path, capsys):
        outfile = tmp_path / "sys9.txt"
        code, out = run_cli(
            ["build-counterexample", "--n", "9", "--m", "4", "--output", str(outfile)],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "built"
        assert rep["result"]["size"] == 39
        assert all(c["verdict"] == "pass" for c in rep["checks"])
        assert len(load_hypergraph(outfile)) == 39

    def test_counterexample_bad_n(self, capsys):
        code, _ = run_cli(["build-counterexample", "--n", "8", "--m", "4"], capsys)
        assert code == 3

    def test_failed_construction_is_negative(self, monkeypatch, capsys):
        def failing(spec, seed):
            raise cli.ConstructionError("no triple system found")

        monkeypatch.setattr(cli, "build_triple_system", failing)
        code = cli.main(["build-steiner", "--n", "7", "--lambda", "1"])
        assert (code, *capsys.readouterr()) == (
            1, "", "deltasys: error: no triple system found\n")


class TestVerifyCounterexample:
    @pytest.fixture
    def sys9(self, tmp_path, capsys):
        outfile = tmp_path / "sys9.txt"
        code, _ = run_cli(
            ["build-counterexample", "--n", "9", "--m", "4", "--output", str(outfile)],
            capsys,
        )
        assert code == 0
        return str(outfile)

    def test_full_verification(self, sys9, capsys):
        code, out = run_cli(["verify-counterexample", sys9, "--m", "4"], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "verified"
        assert {c["name"] for c in rep["checks"]} == {
            "max-codegree", "codegree-triangles", "template-thresholds",
            "exhaustive-search",
        }
        assert "checks" not in rep["result"]

    def test_star_refuted(self, star9, capsys):
        code, out = run_cli(
            ["verify-counterexample", star9, "--m", "4", "--mode", "degree-argument"],
            capsys,
        )
        assert code == 1
        assert report_of(out)["verdict"] == "refuted"

    def test_budget_below_one_is_refused_in_the_degree_argument(self, sys9, capsys):
        code = cli.main(["verify-counterexample", sys9, "--m", "4", "--mode",
                         "degree-argument", "--budget", "0"])
        assert (code, *capsys.readouterr()) == (
            3, "", "deltasys: error: node budget must be an integer at least 1, got 0\n")

    def test_budget_is_conditional(self, sys9, capsys):
        code, out = run_cli(
            ["verify-counterexample", sys9, "--m", "4", "--mode", "exhaustive",
             "--budget", "5"],
            capsys,
        )
        assert code == 2
        rep = report_of(out)
        assert rep["verdict"] == "conditional"
        assert rep["result"]["budget_exhausted"] is True
        assert "checks" not in rep["result"]

    # a 4-graph is refused before any check or search, whatever the budget;
    # without one it used to run the search and exit 1
    @pytest.mark.parametrize("budget", [[], ["--budget", "5"]], ids=["default", "budget"])
    @pytest.mark.parametrize("mode", ["degree-argument", "exhaustive", "both"])
    def test_non_triple_input_is_refused_in_every_mode(self, tmp_path, mode, budget,
                                                       capsys):
        path = tmp_path / "k4.txt"
        save_hypergraph(Hypergraph(8, 4, list(combinations(range(1, 9), 4))), path)
        code = cli.main(["verify-counterexample", str(path), "--m", "4", "--mode", mode]
                        + budget)
        assert (code, *capsys.readouterr()) == (
            3, "", "deltasys: error: pair-codegree maximum is defined for k=3 only, "
                   "got k=4\n")

    def test_build_reports_the_degree_argument_of_what_it_built(self, sys9, capsys):
        code, out = run_cli(["build-counterexample", "--n", "9", "--m", "4"], capsys)
        assert code == 0
        built = report_of(out)["checks"]
        code, out = run_cli(["verify-counterexample", sys9, "--m", "4", "--mode",
                             "degree-argument"], capsys)
        assert code == 0
        assert built == report_of(out)["checks"]
        assert [c["name"] for c in built] == [
            "max-codegree", "codegree-triangles", "template-thresholds"]


class TestExtremal:
    def test_order_above_the_vertex_cap_is_an_input_error(self, capsys):
        # the same cap as build_star and every loader
        code, out = run_cli(
            ["extremal", "--n", "129", "--k", "1", "--config",
             "nontrivial-intersecting", "--size", "2", "--wise", "1"],
            capsys,
        )
        assert code == 3 and not out

    def test_exact_value(self, capsys):
        code, out = run_cli(
            ["extremal", "--n", "5", "--k", "3", "--config",
             "nontrivial-intersecting", "--size", "3", "--wise", "2"],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "exact"
        assert rep["result"]["max_size"] == 6

    @pytest.mark.parametrize("size", ["3", "5"])
    def test_budget_exit(self, size, capsys):
        code, out = run_cli(
            ["extremal", "--n", "6", "--k", "3", "--config",
             "nontrivial-intersecting", "--size", size, "--wise", "2",
             "--budget", "30"],
            capsys,
        )
        assert code == 2
        rep = report_of(out)
        assert rep["verdict"] == "budget-exhausted"
        # the star through vertex 1 is the lower bound
        assert rep["result"]["max_size"] == 10

    # the conflict table is listed under the budget, so a small budget ends
    # the run before the search starts, with the star as the lower bound
    @pytest.mark.parametrize("n, wise, budget", [(10, 3, 1000), (16, 2, 200000)])
    def test_budget_stops_the_table_build(self, n, wise, budget, capsys):
        started = time.perf_counter()
        code, out = run_cli(
            ["extremal", "--n", str(n), "--k", "4", "--config", "d-simplex",
             "--wise", str(wise), "--budget", str(budget)],
            capsys,
        )
        assert time.perf_counter() - started < 2.0
        assert code == 2
        result = report_of(out)["result"]
        assert result["nodes"] == budget + 1
        assert result["max_size"] == comb(n - 1, 3)

    # simplex-7-3 takes 2,186 nodes: one short, it stops on the last
    @pytest.mark.parametrize("budget, code, verdict", [("2186", 0, "exact"),
                                                      ("2185", 2, "budget-exhausted")])
    def test_simplex_budget_boundary(self, budget, code, verdict, capsys):
        got, out = run_cli(["extremal", "--n", "7", "--k", "3", "--config", "d-simplex",
                            "--wise", "2", "--budget", budget], capsys)
        assert got == code
        rep = report_of(out)
        assert rep["verdict"] == verdict
        assert rep["result"]["nodes"] == 2186
        assert rep["result"]["max_size"] == 15

    # the 601st tick falls inside the bulk tick of one leaf of the simplex
    # listing; the report is the one ticking each simplex on its own gave
    def test_budget_inside_a_bulk_tick_keeps_the_report(self, capsys):
        code, out = run_cli(["extremal", "--n", "8", "--k", "3", "--config", "d-simplex",
                             "--wise", "2", "--budget", "600"], capsys)
        assert code == 2
        rep = report_of(out)
        del rep["timing"]
        assert rep["result"]["nodes"] == 601
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert digest[:16] == "72d013a50e668807"

    def test_simplex_runs_as_nontrivial_with_size_one_above_wise(self, capsys):
        results = []
        for tail in (["d-simplex", "--wise", "2"],
                     ["nontrivial-intersecting", "--size", "3", "--wise", "2"]):
            code, out = run_cli(["extremal", "--n", "7", "--k", "3", "--config"] + tail,
                                capsys)
            assert code == 0
            rep = report_of(out)
            assert "budget" in rep["params"] and "seed" not in rep["params"]
            results.append(rep["result"])
        assert results[0] == results[1]
        assert results[0]["config"] == {"kind": "nontrivial-intersecting", "t": 3, "d": 2}
        assert results[0]["nodes"] == 2186
        assert run_cli(["extremal", "--n", "7", "--k", "3", "--config", "d-simplex",
                        "--size", "3", "--wise", "2"], capsys) == (3, "")

    def test_missing_config_parameters(self, capsys):
        code, _ = run_cli(
            ["extremal", "--n", "5", "--k", "3", "--config",
             "nontrivial-intersecting", "--wise", "2"],
            capsys,
        )
        assert code == 3


# the flags each --config reads; the others of the four do not apply to it
CONFIG_FLAGS = {
    "nontrivial-intersecting": ["--size", "3", "--wise", "2"],
    "d-simplex": ["--wise", "2"],
    "avd-system": ["--a", "2,1", "--d", "2"],
}
STRAY_FLAGS = {"--size": "3", "--wise": "2", "--a": "2,1", "--d": "2"}


@pytest.mark.parametrize("config, flag", [
    (config, flag) for config, own in CONFIG_FLAGS.items()
    for flag in STRAY_FLAGS if flag not in own])
def test_extremal_flag_of_another_config_is_an_input_error(config, flag, capsys):
    argv = ["extremal", "--n", "5", "--k", "3", "--config", config] + CONFIG_FLAGS[config]
    assert run_cli(argv, capsys)[0] == 0
    assert run_cli(argv + [flag, STRAY_FLAGS[flag]], capsys) == (3, "")


class TestStabilityScan:
    def test_plain_scan(self, star9, capsys):
        code, out = run_cli(["stability-scan", star9, "--epsilon", "0.0"], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "ok"
        assert rep["result"]["vertex"] == 1
        assert rep["result"]["missed"] == 0

    def test_delta_pass_and_fail(self, tmp_path, capsys):
        h = Hypergraph(6, 3, list(build_star(6, 3).edges) + [(2, 3, 4)])
        hpath = tmp_path / "near.txt"
        save_hypergraph(h, hpath)
        code, out = run_cli(
            ["stability-scan", str(hpath), "--epsilon", "0.2", "--delta", "0.1"],
            capsys,
        )
        assert code == 0
        assert report_of(out)["verdict"] == "within-delta"
        code, out = run_cli(
            ["stability-scan", str(hpath), "--epsilon", "0.2", "--delta", "0.001"],
            capsys,
        )
        assert code == 1
        assert report_of(out)["verdict"] == "outside-delta"

    def test_non_finite_delta_or_epsilon_is_an_input_error(self, tmp_path, capsys):
        hpath = tmp_path / "star6.txt"
        save_hypergraph(build_star(6, 3), hpath)
        for flags in (["--epsilon", "0", "--delta", "inf"],
                      ["--epsilon", "0", "--delta", "nan"],
                      ["--epsilon", "inf"],
                      ["--epsilon", "nan"]):
            code, out = run_cli(["stability-scan", str(hpath)] + flags, capsys)
            assert code == 3, flags
            assert out == ""


class TestHomogeneousExtract:
    def test_certificate_artifact(self, tmp_path, capsys):
        h = Hypergraph(
            6, 3, [tuple(sorted((a, b, c))) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
        )
        hpath = tmp_path / "k222.txt"
        save_hypergraph(h, hpath)
        cpath = tmp_path / "cert.json"
        code, out = run_cli(
            ["homogeneous-extract", str(hpath), "--size", "2", "--output", str(cpath)],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["verdict"] == "extracted"
        assert rep["result"]["size"] <= rep["result"]["size_bound"]
        cert = json.loads(cpath.read_text())
        assert cert["s"] == 2
        assert len(cert["edges"]) == rep["result"]["size"]


class TestReportLayout:
    def test_check_entry(self):
        assert deltasys.Check is constructions.Check is search.Check
        bare = Check("c", True, "claim")
        assert bare.to_json() == {"name": "c", "verdict": "pass", "claim": "claim"}
        # detail and witness are written only when they hold something
        assert Check("c", False, "claim", detail="", witness=()).to_json() == {
            "name": "c", "verdict": "fail", "claim": "claim"}
        violating = ((1, 2), (3, 4))
        full = Check("c", False, "claim", detail="measured 3", witness=violating).to_json()
        assert full == {"name": "c", "verdict": "fail", "claim": "claim",
                        "detail": "measured 3", "witness": violating}
        assert full["witness"] is violating

    @pytest.fixture
    def serialized(self, monkeypatch):
        """Every object passed to `cli._json`, in call order."""
        calls = []
        real = cli._json

        def recording(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(cli, "_json", recording)
        return calls

    def test_one_line_per_key_for_every_command(self, every_command, serialized, capsys):
        for name, tail in every_command.items():
            serialized.clear()
            code, out = run_cli([name] + tail, capsys)
            assert code in (0, 1), name
            lines = out.splitlines()
            assert lines[0] == "{" and lines[-1] == "}", name
            body = lines[1:-1]
            assert all(line.endswith(",") for line in body[:-1]), name
            keys = [next(iter(json.loads("{" + line.rstrip(",") + "}"))) for line in body]
            assert keys == sorted(REPORT_KEYS), name
            # the report only: no artifact is serialized without --output
            assert len(serialized) == 1, name
            assert report_of(out) == json.loads(json.dumps(serialized[0])), name

    def test_every_report_is_pinned(self, every_command, tmp_path, capsys):
        # the exit code and stdout of every subcommand, byte for byte apart
        # from the timing line and the temporary directory in params
        digest = hashlib.sha256()
        for name in sorted(every_command):
            code, out = run_cli([name] + every_command[name], capsys)
            lines = [line for line in out.splitlines()
                     if not line.startswith('  "timing": ')]
            text = "\n".join(lines).replace(str(tmp_path), "<tmp>")
            digest.update(f"{name} {code}\n{text}\n".encode())
        assert digest.hexdigest() == (
            "df6791bddd1ac8b4dc26d61cee9f2943afaba606826be0eeddbf0941ae6ef425")

    def test_each_fact_is_written_once(self, every_command, capsys):
        # the command is the report's own key and the checks its own list;
        # params and result do not repeat them. The searches' result.status,
        # which the benchmark's answer check reads, is the verdict itself
        for name, tail in every_command.items():
            rep = report_of(run_cli([name] + tail, capsys)[1])
            assert "command" not in rep["params"], name
            assert "checks" not in rep["result"], name
            assert rep["result"].get("status", rep["verdict"]) == rep["verdict"], name

    def test_certificate_artifact_only_with_output(self, star9, tmp_path, serialized, capsys):
        argv = ["homogeneous-extract", star9, "--size", "2"]
        code, out = run_cli(argv, capsys)
        assert code == 0 and len(serialized) == 1
        serialized.clear()
        cpath = tmp_path / "cert.json"
        code, out = run_cli(argv + ["--output", str(cpath)], capsys)
        assert code == 0 and len(serialized) == 2
        cert = report_of(out)["result"]["certificate"]
        assert json.loads(cpath.read_text()) == cert
        lines = cpath.read_text().splitlines()
        assert (lines[0], lines[-1], len(lines)) == ("{", "}", len(cert) + 2)

    def test_output_holds_the_documented_artifact(self, every_command, star9,
                                                  tmp_path, capsys):
        # builders write the hypergraph; a positive outcome with a witness
        # or certificate writes that object; any other run writes its report
        system = {"build-steiner": "blocks", "build-counterexample": "edges"}
        obj = {"find-sunflower": "witness", "find-avd": "witness",
               "complete-semi": "witness", "homogeneous-extract": "certificate"}
        cluster = tmp_path / "cluster.txt"
        save_hypergraph(Hypergraph(6, 3, [(1, 2, 3), (3, 4, 5), (1, 2, 6)]), cluster)
        runs = list(every_command.items()) + [
            ("find-sunflower", [star9, "--center", "1", "--size", "5"]),
            ("find-avd", [str(cluster), "--a", "2,1", "--d", "2"]),
            ("check-intersecting", [str(cluster), "--wise", "3"]),
            ("verify-counterexample", [star9, "--m", "4", "--mode", "degree-argument"]),
        ]
        kinds = set()
        for i, (name, tail) in enumerate(runs):
            path = tmp_path / f"artifact{i}"
            code, out = run_cli([name] + tail + ["--output", str(path)], capsys)
            assert code in (0, 1), name
            result = report_of(out)["result"]
            if name in system:
                kinds.add("hypergraph")
                assert [list(e) for e in load_hypergraph(path).edges] == result[system[name]]
            elif result.get(obj.get(name)) is not None:
                kinds.add("object")
                assert json.loads(path.read_text()) == result[obj[name]], name
            else:
                kinds.add("report")
                assert path.read_text() == out, name
        assert kinds == {"hypergraph", "object", "report"}

    def test_builders_serialize_the_hypergraph_only_with_output(
            self, tmp_path, monkeypatch, capsys):
        written = []
        real = cli.serialize_hypergraph
        monkeypatch.setattr(cli, "serialize_hypergraph",
                            lambda h: written.append(h) or real(h))
        argv = ["build-counterexample", "--n", "9", "--m", "4"]
        assert run_cli(argv, capsys)[0] == 0
        assert written == []
        path = tmp_path / "sys9.txt"
        assert run_cli(argv + ["--output", str(path)], capsys)[0] == 0
        assert len(written) == 1 and load_hypergraph(path) == written[0]


def normalized(out):
    rep = json.loads(out)
    rep.pop("timing")
    return rep


class TestDeterminism:
    def test_seeded_extraction_reruns_identically(self, tmp_path, capsys):
        rng = random.Random(31415)
        from conftest import random_hypergraph

        h = random_hypergraph(rng, n=10, k=3, max_edges=30)
        hpath = tmp_path / "h.txt"
        save_hypergraph(h, hpath)
        runs = []
        for _ in range(2):
            code, out = run_cli(
                ["homogeneous-extract", str(hpath), "--size", "2", "--seed", "7"],
                capsys,
            )
            assert code == 0
            runs.append(normalized(out))
        assert runs[0] == runs[1]

    def test_search_reruns_identically(self, tmp_path, capsys):
        hpath = tmp_path / "sys.txt"
        code, _ = run_cli(
            ["build-counterexample", "--n", "9", "--m", "4", "--output", str(hpath)],
            capsys,
        )
        assert code == 0
        runs = []
        for _ in range(2):
            code, out = run_cli(
                ["verify-counterexample", str(hpath), "--m", "4"],
                capsys,
            )
            assert code == 0
            runs.append(normalized(out))
        assert runs[0] == runs[1]


SUBCOMMANDS = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
SEARCHES = {"find-avd", "find-nontrivial", "check-intersecting",
            "verify-counterexample", "extremal"}
RANDOMIZED = {"build-steiner", "build-counterexample", "homogeneous-extract"}


def taking(flag):
    return {name for name, p in SUBCOMMANDS.items() if flag in p._option_string_actions}


class TestGlobalFlags:
    def test_every_command_takes_output(self):
        assert taking("--output") == set(SUBCOMMANDS)

    @pytest.mark.parametrize("tail, message", [
        (["shadow", "{star}", "--order", "1", "--seed", "9"],
         "unrecognized arguments: --seed 9"),
        (["shadow", "{star}", "--order", "1", "--threads", "2"],
         "unrecognized arguments: --threads 2"),
        (["shadow", "{star}", "--order", "x"], "argument --order: invalid int value: 'x'"),
        (["check-intersecting", "{star}", "--wise", "2", "--budget", "soon"],
         "argument --budget: invalid int value: 'soon'"),
    ])
    def test_usage_error_names_the_problem(self, star5, tail, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([star5 if a == "{star}" else a for a in tail])
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ")
        assert f"deltasys: error: {message}\n" in err

    @pytest.mark.parametrize("flag, value, users", [
        ("--budget", "5", SEARCHES), ("--seed", "1", RANDOMIZED)])
    def test_flag_is_refused_where_nothing_reads_it(
            self, every_command, flag, value, users, capsys):
        assert taking(flag) == users
        for name, tail in every_command.items():
            if name not in users:
                assert run_cli([name] + tail + [flag, value], capsys) == (3, ""), name

    def test_unknown_command(self, capsys):
        code, _ = run_cli(["frobnicate"], capsys)
        assert code == 3

    def test_no_arguments(self, capsys):
        code, _ = run_cli([], capsys)
        assert code == 3

    def test_budget_below_one_is_an_input_error_for_every_command(
            self, every_command, capsys):
        assert set(every_command) == set(SUBCOMMANDS)
        assert taking("--budget") == SEARCHES
        for name in sorted(SEARCHES):
            tail = every_command[name]
            code, out = run_cli([name] + tail + ["--budget", "1"], capsys)
            assert code != 3 and out, name
            for bad in ("0", "-5"):
                code, out = run_cli([name] + tail + ["--budget", bad], capsys)
                assert (code, out) == (3, ""), (name, bad)

    def test_non_integer_budget(self, star9, capsys):
        code, _ = run_cli(["check-intersecting", star9, "--wise", "2", "--budget", "soon"],
                          capsys)
        assert code == 3

    # the artifact is written before the report is printed, so exit code 3
    # comes with a message and no report
    @pytest.mark.parametrize("argv", [
        ["find-sunflower", "--center", "1", "--size", "4"], ["weight-check"]],
        ids=["artifact", "report"])
    def test_output_write_failure_is_an_input_error(self, star9, argv, capsys):
        path = "/nonexistent-dir/d/x.json"
        code = cli.main(argv[:1] + [star9] + argv[1:] + ["--output", path])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("deltasys: error: ") and path in err


class TestParserReuse:
    """`main` builds its parser on the first call and reuses it afterwards."""

    def test_second_call_builds_no_parser(self, star5, monkeypatch, capsys):
        assert cli._build_parser() is cli._build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        assert run_cli(["shadow", star5, "--order", "1"], capsys)[0] == 0
        assert len(built) == 3 + 1 + len(SUBCOMMANDS)  # parents, top level, commands
        del built[:]
        assert run_cli(["weight-check", star5], capsys)[0] == 0
        assert built == []

    def test_shared_parser_keeps_no_state(self, star9, tmp_path, monkeypatch, capsys):
        # each run must match the same argv in a fresh interpreter, whatever
        # ran before it in this one
        extremal = ["extremal", "--n", "6", "--k", "3", "--config",
                    "nontrivial-intersecting", "--size", "5", "--wise", "2"]
        sequence = [
            extremal,
            ["shadow", star9, "--order", "x"],
            ["shadow", star9, "--order", "1", "--budget", "5"],
            ["--help"],
            ["find-sunflower", star9, "--center", "1", "--size", "2"],
            ["find-sunflower", star9, "--size", "2"],
            extremal,
        ]
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        runs = []
        for argv in sequence:
            try:
                code, exited = cli.main(list(argv)), False
            except SystemExit as exc:
                code, exited = exc.code, True
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "deltasys", *argv], env=env,
                                   cwd=tmp_path, capture_output=True, text=True)
            assert (code, err) == (fresh.returncode, fresh.stderr), argv
            if argv[0] in ("extremal", "find-sunflower"):
                assert normalized(out) == normalized(fresh.stdout), argv
            else:
                assert out == fresh.stdout, argv
            runs.append((code, exited, out))
        assert [(code, exited) for code, exited, _ in runs] == [
            (0, False), (3, True), (3, True), (0, True), (0, False), (1, False), (0, False)]
        assert runs[1][2] == runs[2][2] == ""
        assert runs[3][2].startswith("usage: deltasys")
        assert json.loads(runs[5][2])["params"]["center"] == []
        assert normalized(runs[6][2]) == normalized(runs[0][2])


def test_every_benchmark_job_parses(tmp_path, monkeypatch):
    # the benchmark drives the CLI by argv; a flag it passes must still exist
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    assert set(workloads.SETUP) == {"certify", "extremal", "graphs"}
    parser = _build_parser()
    for name, setup in workloads.SETUP.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for job in setup(str(workdir), 0, "tiny"):
            assert parser.parse_args(list(job.argv)).command == job.argv[0], job.name


def test_readme_exit_table_matches_the_code():
    # each row's verdicts column names its verdicts before any "; " note
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdecimal():
            for verdict in re.findall(r"`([^`]+)`", cells[2].split(";")[0]):
                assert verdict not in listed, verdict
                listed[verdict] = int(cells[0])
    assert listed == cli._EXIT
