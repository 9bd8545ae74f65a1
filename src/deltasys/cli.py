"""Command line interface.

Every subcommand prints one JSON report to stdout and signals the outcome
through its exit code: 0 for found/verified/built, 1 for a negative result
(nothing found, refuted, unclassified, construction failed), 2 for an
exhausted node budget, 3 for bad input (file format, parameters,
admissibility, unusable flags).

A report, and every JSON artifact, is written by `_json`: one line per
top-level key in sorted order, each value compact on its line, so a report
with long lists stays small and is cheap to write; `python -m json.tool`
pretty-prints one. --output stores the command's primary artifact:
constructed hypergraphs as text files, search witnesses and certificates
as JSON, and the full report for purely informational commands. An
artifact is serialized only when --output is given. --threads is accepted
and validated for interface stability; execution is sequential either
way, which keeps reports bit-identical across thread counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .constructions import (DesignSpec, build_counterexample,
                            build_triple_system, verify_counterexample)
from .errors import (BudgetExceeded, ClassificationError, ConstructionError,
                     ParameterError)
from .extremal import (CONFIG_KINDS, ForbiddenConfig, max_avoiding,
                       stability_scan)
from .hgio import load_hypergraph, serialize_hypergraph
from .homogeneous import extract_homogeneous, homogeneous_size_bound
from .hypergraph import Hypergraph, shadow, weight_identity
from .intersecting import (check_km_codegree_bounds, check_nontrivial,
                           classify_intersecting, find_nontrivial_subfamily)
from .search import NodeCounter, SearchStatus, default_budget
from .sunflowers import (SunflowerCluster, complete_cluster, find_cluster,
                         find_sunflower)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3

_STATUS_EXIT = {SearchStatus.FOUND: EXIT_OK,
                SearchStatus.NONE: EXIT_NEGATIVE,
                SearchStatus.BUDGET: EXIT_BUDGET}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the budget
    # exit code; route usage problems to the input-error code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _params(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in vars(args).items():
        if key == "func":
            continue
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _check(name: str, ok: bool, claim: str, **extra) -> dict:
    entry = {"name": name, "verdict": "pass" if ok else "fail", "claim": claim}
    entry.update(extra)
    return entry


def _json(obj: dict) -> str:
    """`obj` as JSON text: `{`, one `"key": value` line per key in sorted
    order, then `}`. Each value is written compactly by the C encoder."""
    lines = [f"  {json.dumps(key)}: {json.dumps(obj[key], sort_keys=True)}"
             for key in sorted(obj)]
    return "{\n" + ",\n".join(lines) + "\n}"


def _emit(args, checks: list[dict], result: dict, verdict: str,
          started: float, artifact: dict | Hypergraph | None = None) -> None:
    """Print the report; with --output, also write the artifact (a JSON
    object or a hypergraph), or the report itself when there is none."""
    report = {
        "schema": 1,
        "command": args.command,
        "params": _params(args),
        "checks": checks,
        "result": result,
        "verdict": verdict,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }
    text = _json(report)
    print(text)
    if args.output:
        if artifact is None:
            payload = text + "\n"
        elif isinstance(artifact, Hypergraph):
            payload = serialize_hypergraph(artifact)
        else:
            payload = _json(artifact) + "\n"
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)


def cmd_shadow(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    subsets = sorted(shadow(h, args.order))
    result = {"order": args.order, "count": len(subsets),
              "subsets": [list(s) for s in subsets]}
    _emit(args, [], result, "ok", started)
    return EXIT_OK


def cmd_weight_check(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    total, shadow_size = weight_identity(h)
    ok = total == shadow_size
    checks = [_check("degree-weight-identity", ok,
                     "summing the reciprocal edge count of every one-smaller "
                     "subset, over all edges, gives exactly the number of "
                     "distinct one-smaller subsets")]
    result = {"weight_sum": str(total), "shadow_size": shadow_size,
              "edges": len(h)}
    _emit(args, checks, result, "verified" if ok else "failed", started)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_find_sunflower(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    flower = find_sunflower(h, args.center, args.size)
    if flower is None:
        _emit(args, [], {"witness": None}, "none", started)
        return EXIT_NEGATIVE
    result = {"witness": {"center": list(flower.center),
                          "petals": [list(p) for p in flower.petals]}}
    _emit(args, [], result, "found", started, artifact=result["witness"])
    return EXIT_OK


def cmd_find_avd(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    out = find_cluster(h, args.a, args.d, budget=args.budget)
    result: dict = {"status": out.status.value, "nodes": out.nodes}
    if out.found:
        result["witness"] = out.witness.to_json()
    _emit(args, [], result, out.status.value, started,
          artifact=result.get("witness"))
    return _STATUS_EXIT[out.status]


def cmd_complete_semi(args) -> int:
    started = time.perf_counter()
    with open(args.witness, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("witness file does not hold a cluster object")
    if "host" not in data and isinstance(data.get("result"), dict):
        data = data["result"].get("witness", data)
    if not isinstance(data, dict) or "host" not in data:
        raise ParameterError("witness file does not hold a cluster object")
    cluster = SunflowerCluster.from_json(data)
    completed = complete_cluster(cluster, args.b)
    checks = [_check("disjoint-residues", True,
                     "the completed cluster's petal residues are pairwise "
                     "disjoint outside the host")]
    result = {"witness": completed.to_json(),
              "petals": completed.petal_count}
    _emit(args, checks, result, "completed", started, artifact=result["witness"])
    return EXIT_OK


def cmd_find_nontrivial(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    out = find_nontrivial_subfamily(h, args.size, args.wise, budget=args.budget)
    result: dict = {"status": out.status.value, "nodes": out.nodes}
    if out.found:
        result["witness"] = [list(e) for e in out.witness]
    _emit(args, [], result, out.status.value, started)
    return _STATUS_EXIT[out.status]


def cmd_check_intersecting(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    counter = NodeCounter(args.budget if args.budget is not None else default_budget())
    try:
        w = check_nontrivial(h.edges, args.wise, counter)
    except BudgetExceeded:
        result = {"status": SearchStatus.BUDGET.value, "nodes": counter.nodes}
        _emit(args, [], result, SearchStatus.BUDGET.value, started)
        return EXIT_BUDGET
    t = min(args.wise, len(h))
    checks = [
        _check("d-wise-intersecting", w.intersecting,
               f"every {t} members share a vertex",
               **({"witness": [list(e) for e in w.violating]}
                  if w.violating else {})),
        _check("no-common-vertex", not w.common,
               "no single vertex lies in every member"),
    ]
    result = {"common_intersection": list(w.common), "nontrivial": w.nontrivial}
    _emit(args, checks, result, "verified" if w.intersecting else "failed",
          started)
    return EXIT_OK if w.intersecting else EXIT_NEGATIVE


def cmd_classify_km(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    try:
        km = classify_intersecting(h)
    except ClassificationError as exc:
        result = {"template": None, "diagnostics": exc.diagnostics}
        _emit(args, [], result, "unclassified", started)
        return EXIT_NEGATIVE
    checks = [_check("containment", True,
                     "every member lies in the named template")]
    try:
        bound_ok = check_km_codegree_bounds(h, km)
        checks.append(_check("codegree-bound", bound_ok,
                             "the template forces its minimum value of the "
                             "maximum pair codegree"))
    except ParameterError:
        pass  # no bound applies to star-like templates
    result = {"template": km.tag,
              "mapping": {str(c): v for c, v in sorted(km.mapping.items())}}
    _emit(args, checks, result, "classified", started)
    return EXIT_OK


def cmd_build_steiner(args) -> int:
    started = time.perf_counter()
    spec = DesignSpec(args.n, args.lam)
    h = build_triple_system(spec, seed=args.seed)
    checks = [_check("pair-exact", True,
                     f"every vertex pair lies in exactly {args.lam} blocks")]
    result = {"n": args.n, "lambda": args.lam, "size": len(h),
              "blocks": [list(e) for e in h.edges]}
    _emit(args, checks, result, "built", started, artifact=h)
    return EXIT_OK


def cmd_build_counterexample(args) -> int:
    started = time.perf_counter()
    rep = build_counterexample(args.n, args.m, seed=args.seed)
    checks = [
        _check("max-codegree", rep.max_codegree == args.m,
               f"maximum pair codegree equals {args.m}"),
        _check("codegree-triangles", rep.triangles_ok,
               f"pairs of codegree {args.m} form disjoint triangles "
               f"covering all {args.n} vertices"),
    ]
    result = rep.to_json()
    result["edges"] = [list(e) for e in rep.system.edges]
    ok = rep.max_codegree == args.m and rep.triangles_ok
    _emit(args, checks, result, "built" if ok else "failed", started,
          artifact=rep.system)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_verify_counterexample(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    vr = verify_counterexample(h, args.m, mode=args.mode, budget=args.budget)
    checks = [_check(c.name, c.ok, c.claim,
                     **({"detail": c.detail} if c.detail else {}))
              for c in vr.checks]
    result = vr.to_json()
    _emit(args, checks, result, vr.verdict, started)
    if vr.verdict == "refuted":
        return EXIT_NEGATIVE
    if vr.budget_exhausted:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_extremal(args) -> int:
    started = time.perf_counter()
    if args.config == "nontrivial-intersecting":
        config = ForbiddenConfig(args.config, t=args.size, d=args.wise)
    elif args.config == "d-simplex":
        config = ForbiddenConfig(args.config, d=args.wise)
    else:
        config = ForbiddenConfig(args.config, d=args.d, part_sizes=args.a)
    res = max_avoiding(args.n, args.k, config, budget=args.budget)
    result = res.to_json()
    verdict = "exact" if res.exact else "budget-exhausted"
    _emit(args, [], result, verdict, started)
    return EXIT_OK if res.exact else EXIT_BUDGET


def cmd_stability_scan(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    rep = stability_scan(h, args.epsilon, args.delta)
    result = rep.to_json()
    if args.delta is None:
        _emit(args, [], result, "ok", started)
        return EXIT_OK
    verdict = "within-delta" if rep.within_delta else "outside-delta"
    checks = [_check("missed-members", bool(rep.within_delta),
                     "the number of members missing the best vertex stays "
                     "within the allowed fraction")]
    _emit(args, checks, result, verdict, started)
    return EXIT_OK if rep.within_delta else EXIT_NEGATIVE


def cmd_homogeneous_extract(args) -> int:
    started = time.perf_counter()
    h = load_hypergraph(args.input)
    cert = extract_homogeneous(h, args.size, seed=args.seed,
                               restarts=args.restarts)
    bound = homogeneous_size_bound(cert)
    size = len(cert.subgraph)
    checks = [_check("size-bound", size <= bound,
                     "the subgraph size is at most the shadow count fixed "
                     "by its pattern rank")]
    cert_json = cert.to_json()
    result = {"certificate": cert_json, "size": size, "size_bound": bound}
    _emit(args, checks, result, "extracted", started, artifact=cert_json)
    return EXIT_OK


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="random seed for any randomized step (default 0)")
    common.add_argument("--budget", type=int, default=None,
                        help="node budget for exact searches "
                             "(default: DELTASYS_NODE_BUDGET or 10^8)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker count; accepted for compatibility, "
                             "execution is sequential")
    common.add_argument("--output", default=None,
                        help="write the command's primary artifact to this path")

    parser = _Parser(prog="deltasys",
                     description="Exact search and verification for sunflowers, "
                                 "intersecting families, and triple systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **kw):
        p = sub.add_parser(name, parents=[common], help=help_text,
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
            "search for a host-partitioned sunflower cluster")
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
            "with no common vertex")
    p.add_argument("input")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--wise", type=int, required=True)

    p = add("check-intersecting", cmd_check_intersecting,
            "check the whole family for --wise-wise intersection")
    p.add_argument("input")
    p.add_argument("--wise", type=int, required=True)

    p = add("classify-km", cmd_classify_km,
            "match a pairwise-intersecting triple family against the "
            "known templates")
    p.add_argument("input")

    p = add("build-steiner", cmd_build_steiner,
            "construct a pair-exact triple system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True,
                   help="how many blocks each pair must lie in")

    p = add("build-counterexample", cmd_build_counterexample,
            "construct the dense codegree-capped family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True,
                   help="target maximum pair codegree")

    p = add("verify-counterexample", cmd_verify_counterexample,
            "verify the codegree-capped family against forbidden subfamilies")
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("degree-argument", "exhaustive", "both"),
                   default="both")

    p = add("extremal", cmd_extremal,
            "exact maximum family size avoiding a forbidden configuration")
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
            "extract a large homogeneous subgraph with a certificate")
    p.add_argument("input")
    p.add_argument("--size", type=int, required=True,
                   help="required petal count s for every intersection")
    p.add_argument("--restarts", type=int, default=8)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("threads", args.threads), ("budget", args.budget)):
        if value is not None and value < 1:
            print(f"deltasys: error: --{flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"deltasys: error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, OSError) as exc:
        # ParameterError, FormatError, AdmissibilityError and friends are
        # ValueErrors; any of them marks unusable input
        print(f"deltasys: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
