"""Command line interface.

Every subcommand prints one JSON report to stdout and signals the outcome
through its exit code. A handler returns only its verdict, its result and,
when it has them, its named checks (`Check`s, each written by its own
`to_json`) and artifact; `main` does the rest once:
it starts the clock, loads the input, emits the report and looks the verdict
up in `_EXIT`, which lists every verdict under its code: 0 for a positive
outcome, 1 for a negative one, 2 for an exhausted node budget (also
verify-counterexample's conditional verdict when its search ran out).
Bad input (file format, parameters, admissibility, unusable flags) exits 3
with a message on stderr, after the usage line for a usage error.

A report, and every JSON artifact, is written by `_json`: one line per
top-level key in sorted order, each value compact on its line, so a report
with long lists stays small and is cheap to write; `python -m json.tool`
pretty-prints one. --output stores the command's primary artifact:
constructed hypergraphs as text files, search witnesses and certificates
as JSON, and the full report for purely informational commands and
negative outcomes. An artifact is serialized only when --output is given,
and it is written before the report is printed, so a path that cannot be
written exits 3 with no report.
Every command runs on one thread. --budget and --seed belong only to the
commands that read them.
`main(argv)` may be called many times in one process: the parser is built
on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import NamedTuple, Sequence

from .constructions import (DesignSpec, build_counterexample,
                            build_triple_system, verify_counterexample)
from .errors import ConstructionError, ParameterError
from .extremal import (CONFIG_KINDS, ForbiddenConfig, max_avoiding,
                       stability_scan)
from .hgio import load_hypergraph, serialize_hypergraph
from .homogeneous import extract_homogeneous, homogeneous_size_bound
from .hypergraph import Hypergraph, shadow, weight_identity
from .intersecting import (CODEGREE_BOUND_TAGS, check_km_codegree_bounds,
                           check_nontrivial, classify_intersecting,
                           find_nontrivial_subfamily)
from .search import Check, bounded
from .sunflowers import (SunflowerCluster, complete_cluster, find_cluster,
                         find_sunflower)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3

# the exit code of every verdict; the one exception, verify-counterexample's
# "conditional" after an exhausted search, is handled in `main`
_EXIT = {
    **dict.fromkeys(("ok", "found", "verified", "classified", "completed",
                     "built", "conditional", "exact", "within-delta",
                     "extracted"), EXIT_OK),
    **dict.fromkeys(("none", "failed", "refuted", "outside-delta"),
                    EXIT_NEGATIVE),
    "budget-exhausted": EXIT_BUDGET,
}


class _Answer(NamedTuple):
    """What a handler returns; without an artifact, --output gets the report."""

    verdict: str
    result: dict
    checks: Sequence[Check] = ()
    artifact: dict | Hypergraph | None = None


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the budget
    # exit code; route usage problems to the input-error code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"deltasys: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _json(obj: dict) -> str:
    """`obj` as JSON text: `{`, one `"key": value` line per key in sorted
    order, then `}`. Each value is written compactly by the C encoder."""
    lines = [f"  {json.dumps(key)}: {json.dumps(obj[key], sort_keys=True)}"
             for key in sorted(obj)]
    return "{\n" + ",\n".join(lines) + "\n}"


def _emit(args, answer: _Answer, started: float) -> None:
    """With --output, write the artifact (a JSON object or a hypergraph), or
    the report itself when there is none; then print the report."""
    report = {
        "schema": 1,
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "checks": [c.to_json() for c in answer.checks],
        "result": answer.result,
        "verdict": answer.verdict,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    text = _json(report)
    if args.output:
        artifact = answer.artifact
        if artifact is None:
            payload = text + "\n"
        elif isinstance(artifact, Hypergraph):
            payload = serialize_hypergraph(artifact)
        else:
            payload = _json(artifact) + "\n"
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    print(text)


def cmd_shadow(args, h) -> _Answer:
    subsets = sorted(shadow(h, args.order))
    return _Answer("ok", {"order": args.order, "count": len(subsets),
                          "subsets": subsets})


def cmd_weight_check(args, h) -> _Answer:
    total, shadow_size = weight_identity(h)
    ok = total == shadow_size
    checks = [Check("degree-weight-identity", ok,
                    "summing the reciprocal edge count of every one-smaller "
                    "subset, over all edges, gives exactly the number of "
                    "distinct one-smaller subsets")]
    result = {"weight_sum": str(total), "shadow_size": shadow_size,
              "edges": len(h)}
    return _Answer("verified" if ok else "failed", result, checks)


def cmd_find_sunflower(args, h) -> _Answer:
    flower = find_sunflower(h, args.center, args.size)
    if flower is None:
        return _Answer("none", {"witness": None})
    witness = {"center": flower.center, "petals": flower.petals}
    return _Answer("found", {"witness": witness}, artifact=witness)


def cmd_find_avd(args, h) -> _Answer:
    out = find_cluster(h, args.a, args.d, budget=args.budget)
    result: dict = {"status": out.status.value, "nodes": out.nodes}
    if out.found:
        result["witness"] = out.witness.to_json()
    return _Answer(out.status.value, result, artifact=result.get("witness"))


def cmd_complete_semi(args, h) -> _Answer:
    with open(args.witness, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "host" not in data and isinstance(data.get("result"), dict):
        data = data["result"].get("witness", data)
    if not (isinstance(data, dict) and "host" in data):
        raise ParameterError("witness file does not hold a cluster object")
    cluster = SunflowerCluster.from_json(data)
    completed = complete_cluster(cluster, args.b)
    checks = [Check("disjoint-residues", True,
                    "the completed cluster's petal residues are pairwise "
                    "disjoint outside the host")]
    witness = completed.to_json()
    return _Answer("completed", {"witness": witness,
                                 "petals": completed.petal_count},
                   checks, witness)


def cmd_find_nontrivial(args, h) -> _Answer:
    out = find_nontrivial_subfamily(h, args.size, args.wise, budget=args.budget)
    result: dict = {"status": out.status.value, "nodes": out.nodes}
    if out.found:
        result["witness"] = out.witness
    return _Answer(out.status.value, result)


def cmd_check_intersecting(args, h) -> _Answer:
    out = bounded(args.budget, lambda counter: check_nontrivial(h.edges, args.wise, counter))
    if not out.found:
        return _Answer(out.status.value, {"status": out.status.value, "nodes": out.nodes})
    w, t = out.witness, min(args.wise, len(h))
    checks = [
        Check("d-wise-intersecting", w.intersecting,
              f"every {t} members share a vertex", witness=w.violating),
        Check("no-common-vertex", not w.common,
              "no single vertex lies in every member"),
    ]
    result = {"common_intersection": w.common, "nontrivial": w.nontrivial}
    return _Answer("verified" if w.intersecting else "failed", result, checks)


def cmd_classify_km(args, h) -> _Answer:
    km = classify_intersecting(h)
    contained = km.contains_family(h)
    checks = [Check("containment", contained,
                    "every member lies in the named template")]
    if contained and km.tag in CODEGREE_BOUND_TAGS:
        checks.append(Check("codegree-bound", check_km_codegree_bounds(h, km),
                            "the template forces its minimum value of the "
                            "maximum pair codegree"))
    result = {"template": km.tag,
              "mapping": {str(c): v for c, v in sorted(km.mapping.items())}}
    return _Answer("classified" if contained else "failed", result, checks)


def cmd_build_steiner(args, h) -> _Answer:
    system = build_triple_system(DesignSpec(args.n, args.lam), seed=args.seed)
    checks = [Check("pair-exact", True,
                    f"every vertex pair lies in exactly {args.lam} blocks")]
    result = {"n": args.n, "lambda": args.lam, "size": len(system),
              "blocks": system.edges}
    return _Answer("built", result, checks, system)


def cmd_build_counterexample(args, h) -> _Answer:
    rep = build_counterexample(args.n, args.m, seed=args.seed)
    checks = verify_counterexample(rep.system, args.m, mode="degree-argument").checks
    result = rep.to_json()
    result["edges"] = rep.system.edges
    ok = all(c.ok for c in checks)
    return _Answer("built" if ok else "failed", result, checks, rep.system)


def cmd_verify_counterexample(args, h) -> _Answer:
    vr = verify_counterexample(h, args.m, mode=args.mode, budget=args.budget)
    return _Answer(vr.verdict, vr.to_json(), vr.checks)


def cmd_extremal(args, h) -> _Answer:
    # d comes from --wise for the intersecting kinds and from --d for
    # avd-system; ForbiddenConfig rejects a t or block sizes its kind does
    # not take
    avd = args.config == "avd-system"
    if (args.wise if avd else args.d) is not None:
        raise ParameterError(f"--{'wise' if avd else 'd'} does not apply "
                             f"to --config {args.config}")
    config = ForbiddenConfig(args.config, t=args.size,
                             d=args.d if avd else args.wise, part_sizes=args.a)
    res = max_avoiding(args.n, args.k, config, budget=args.budget)
    return _Answer("exact" if res.exact else "budget-exhausted", res.to_json())


def cmd_stability_scan(args, h) -> _Answer:
    rep = stability_scan(h, args.epsilon, args.delta)
    if args.delta is None:
        return _Answer("ok", rep.to_json())
    checks = [Check("missed-members", rep.within_delta,
                    "the number of members missing the best vertex stays "
                    "within the allowed fraction")]
    return _Answer("within-delta" if rep.within_delta else "outside-delta",
                   rep.to_json(), checks)


def cmd_homogeneous_extract(args, h) -> _Answer:
    cert = extract_homogeneous(h, args.size, seed=args.seed,
                               restarts=args.restarts)
    bound = homogeneous_size_bound(cert)
    size = len(cert.subgraph)
    checks = [Check("size-bound", size <= bound,
                    "the subgraph size is at most the shadow count fixed "
                    "by its pattern rank")]
    cert_json = cert.to_json()
    result = {"certificate": cert_json, "size": size, "size_bound": bound}
    return _Answer("extracted", result, checks, cert_json)


@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write the command's primary artifact to this path")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int,
                        help="search node budget (default 10^8)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    parser = _Parser(prog="deltasys",
                     description="Exact search and verification for sunflowers, "
                                 "intersecting families, and triple systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *flags):
        p = sub.add_parser(name, parents=[common, *flags], help=help_text,
                           description=help_text)
        p.set_defaults(func=func)
        return p

    p = add("shadow", cmd_shadow, "list the subsets obtained by removing "
                                  "--order vertices from every edge")
    p.add_argument("input")
    p.add_argument("--order", type=int, required=True)

    p = add("weight-check", cmd_weight_check,
            "verify the exact degree-weight identity on a hypergraph")
    p.add_argument("input")

    p = add("find-sunflower", cmd_find_sunflower,
            "search for --size edges through --center with disjoint residues")
    p.add_argument("input")
    p.add_argument("--center", type=_int_list, default=(),
                   help="comma-separated center vertices (default: empty)")
    p.add_argument("--size", type=int, required=True)

    p = add("find-avd", cmd_find_avd,
            "search for a host-partitioned sunflower cluster", budget)
    p.add_argument("input")
    p.add_argument("--a", type=_int_list, required=True,
                   help="comma-separated block sizes, summing to k")
    p.add_argument("--d", type=int, required=True, help="total petal count")

    p = add("complete-semi", cmd_complete_semi,
            "shrink a semi cluster witness to disjoint residues")
    p.add_argument("witness", help="cluster witness JSON file")
    p.add_argument("--b", type=_int_list, required=True,
                   help="comma-separated target group sizes")

    p = add("find-nontrivial", cmd_find_nontrivial,
            "search for --size edges, --wise-wise intersecting, "
            "with no common vertex", budget)
    p.add_argument("input")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--wise", type=int, required=True)

    p = add("check-intersecting", cmd_check_intersecting,
            "check the whole family for --wise-wise intersection", budget)
    p.add_argument("input")
    p.add_argument("--wise", type=int, required=True)

    p = add("classify-km", cmd_classify_km,
            "match a pairwise-intersecting triple family against the "
            "known templates")
    p.add_argument("input")

    p = add("build-steiner", cmd_build_steiner,
            "construct a pair-exact triple system", seed)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True,
                   help="how many blocks each pair must lie in")

    p = add("build-counterexample", cmd_build_counterexample,
            "construct the dense codegree-capped family", seed)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True,
                   help="target maximum pair codegree")

    p = add("verify-counterexample", cmd_verify_counterexample,
            "verify the codegree-capped family against forbidden subfamilies", budget)
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("degree-argument", "exhaustive", "both"),
                   default="both")

    p = add("extremal", cmd_extremal,
            "exact maximum family size avoiding a forbidden configuration", budget)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--config", choices=CONFIG_KINDS, required=True)
    p.add_argument("--size", type=int, default=None,
                   help="subfamily size t (nontrivial-intersecting)")
    p.add_argument("--wise", type=int, default=None,
                   help="intersection order d (nontrivial-intersecting, d-simplex)")
    p.add_argument("--a", type=_int_list, default=None,
                   help="block sizes (avd-system)")
    p.add_argument("--d", type=int, default=None,
                   help="petal count (avd-system)")

    p = add("stability-scan", cmd_stability_scan,
            "how close a near-full family is to a star")
    p.add_argument("input")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)

    p = add("homogeneous-extract", cmd_homogeneous_extract,
            "extract a large homogeneous subgraph with a certificate", seed)
    p.add_argument("input")
    p.add_argument("--size", type=int, required=True,
                   help="required petal count s for every intersection")
    p.add_argument("--restarts", type=int, default=8)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        h = load_hypergraph(args.input) if "input" in vars(args) else None
        answer = args.func(args, h)
        _emit(args, answer, started)
    except ConstructionError as exc:
        print(f"deltasys: error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, OSError) as exc:
        # ParameterError, FormatError, AdmissibilityError and friends are
        # ValueErrors; any of them marks unusable input
        print(f"deltasys: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if answer.verdict == "conditional" and answer.result["budget_exhausted"]:
        return EXIT_BUDGET
    return _EXIT[answer.verdict]


if __name__ == "__main__":
    sys.exit(main())
