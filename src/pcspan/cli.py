"""Command-line front end: generation, solving, verification, benchmarking.

Exit codes: 0 success and verified, 2 parse error, 3 infeasible instance,
4 internal invariant violation, 5 resource/scale limit.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time

from . import io as pio
from .config import SolverConfig
from .errors import (
    InfeasibleDemandError,
    InfeasibleWithinCapError,
    InternalInvariantError,
    ParseError,
    PcspanError,
    ResourceLimitError,
)
from .generate import GenerationError, gen_hopset, gen_pcs, gen_rcs
from .greedy import solve_pcs
from .junction import min_density_junction_tree, product_graph_for
from .model import is_feasible, is_theta_feasible
from .oracle import brute_force_opt
from .rational import format_rational, parse_rational
from .rcsp import validate_demands, verify_solution
from .reductions import solve_hopset, solve_rcs

log = logging.getLogger("pcspan")

MODES = ("pcs-int", "pcs-theta", "rcs", "hopset", "junction", "verify", "gen", "bench")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INVARIANT = 4
EXIT_LIMIT = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcspan",
        description="Packing-covering spanner solver suite",
    )
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("instance", nargs="?", help="instance file (or suite dir for bench)")
    parser.add_argument("--epsilon", default="1/2", help="height-reduction knob (h = ceil(1/eps))")
    parser.add_argument("--theta", default="1/10", help="length-relaxation tolerance")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--max-product-vertices", type=int, default=10**7)
    parser.add_argument("--out", help="output path (report, instance, or summary dir)")
    parser.add_argument("--report", help="report file for --mode verify")
    # generation parameters
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--tau", type=int, default=1)
    parser.add_argument("--regime", default="integer", choices=("integer", "rational", "rational-negative"))
    parser.add_argument("--kind", default="pcs", choices=("pcs", "rcs", "hopset"))
    parser.add_argument("--beta", type=int, default=2)
    return parser


def make_config(args) -> SolverConfig:
    return SolverConfig(
        epsilon=parse_rational(args.epsilon),
        theta=parse_rational(args.theta),
        seed=args.seed,
        max_product_vertices=args.max_product_vertices,
    )


def cmd_solve(args, config: SolverConfig) -> int:
    obj = pio.load_json(args.instance)
    if args.mode in ("pcs-int", "pcs-theta"):
        instance = pio.pcs_from_dict(obj)
        if args.mode == "pcs-int" and not instance.is_integer_regime():
            raise ParseError("pcs-int needs positive integer lengths; use pcs-theta")
        validate_demands(instance)
        report = solve_pcs(instance, "integer" if args.mode == "pcs-int" else "theta", config)
        payload = pio.report_to_dict(report)
        theta = config.theta if args.mode == "pcs-theta" else None
    elif args.mode == "rcs":
        rcs = pio.rcs_from_dict(obj)
        report = solve_rcs(rcs, config)
        payload = pio.report_to_dict(report)
        instance = None
        theta = None
    elif args.mode == "hopset":
        hs = pio.hopset_from_dict(obj)
        result = solve_hopset(hs, config)
        payload = pio.report_to_dict(result["report"])
        payload["added_edges"] = [list(e) for e in result["added_edges"]]
        payload["hopset_size"] = result["hopset_size"]
        report = result["report"]
        instance = None
        theta = None
    else:
        raise ParseError(f"unsupported solve mode {args.mode}")
    out = args.out or (args.instance + ".report.json")
    pio.write_json(out, payload)
    log.info("report written to %s", out)
    # round-trip: the emitted file must re-verify from disk
    if instance is not None:
        written = pio.load_json(out)
        edge_ids = [int(e) for e in written["edges"]]
        results = verify_solution(instance, edge_ids, theta=theta)
        if not all(entry["feasible"] for entry in results.values()):
            raise InternalInvariantError("emitted report fails verification from disk")
    if not report.verified:
        raise InternalInvariantError("solver output failed verification")
    return EXIT_OK


def cmd_junction(args, config: SolverConfig) -> int:
    instance = pio.pcs_from_dict(pio.load_json(args.instance))
    if not instance.demands:
        raise ParseError("--mode junction needs at least one demand")
    validate_demands(instance)
    mode = "integer" if instance.is_integer_regime() else "theta"
    pg = product_graph_for(instance, mode, config)
    tree = min_density_junction_tree(pg, config=config)
    out = args.out or (args.instance + ".junction.json")
    pio.write_json(out, pio.junction_to_dict(tree, mode))
    return EXIT_OK


def cmd_verify(args, config: SolverConfig) -> int:
    if not args.report:
        raise ParseError("--mode verify needs --report")
    instance = pio.pcs_from_dict(pio.load_json(args.instance))
    theta, edge_ids, witnesses = pio.report_claims(pio.load_json(args.report), instance)
    results = verify_solution(instance, edge_ids, theta=theta)
    ok = all(entry["feasible"] for entry in results.values())
    for di, d in enumerate(instance.demands):
        walk = witnesses.get(di)
        if walk is None:
            ok = False
            continue
        if theta is None:
            ok = ok and is_feasible(walk, d, instance)
        else:
            ok = ok and is_theta_feasible(walk, d, instance, theta)
    print("verified" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_gen(args, config: SolverConfig) -> int:
    out = args.out or f"{args.kind}-{args.seed}.json"
    if args.kind == "pcs":
        instance = gen_pcs(
            n=args.n, k=args.k, m=args.m, tau=args.tau, regime=args.regime, seed=args.seed
        )
        validate_demands(instance)
        pio.write_json(out, pio.pcs_to_dict(instance))
    elif args.kind == "rcs":
        rcs = gen_rcs(n=args.n, k=args.k, must_visit=max(1, args.m // 2), avoid=args.m - max(1, args.m // 2), seed=args.seed)
        pio.write_json(out, pio.rcs_to_dict(rcs))
    else:
        hs = gen_hopset(n=args.n, k=args.k, beta=args.beta, seed=args.seed)
        pio.write_json(out, pio.hopset_to_dict(hs))
    log.info("instance written to %s", out)
    return EXIT_OK


def _bench_one(path: str, config: SolverConfig) -> dict:
    name = os.path.basename(path)
    entry = {"instance": name}
    started = time.perf_counter()
    try:
        instance = pio.pcs_from_dict(pio.load_json(path))
        validate_demands(instance)
        mode = "integer" if instance.is_integer_regime() else "theta"
        report = solve_pcs(instance, mode, config)
        entry["_runtime"] = time.perf_counter() - started  # the oracle is not timed
        entry["mode"] = mode
        entry["cost"] = format_rational(report.cost)
        entry["verified"] = report.verified
        entry["densities"] = [format_rational(it.density) for it in report.iterations]
        try:
            opt_cost, _ = brute_force_opt(instance)
            entry["opt"] = format_rational(opt_cost)
            entry["ratio"] = (
                format_rational(report.cost / opt_cost) if opt_cost > 0 else None
            )
        except PcspanError:
            entry["opt"] = None
            entry["ratio"] = None
        entry["status"] = "ok"
    except PcspanError as exc:
        entry["status"] = f"error: {exc}"
        entry.setdefault("_runtime", time.perf_counter() - started)
    return entry


def cmd_bench(args, config: SolverConfig) -> int:
    suite = args.instance
    if not suite or not os.path.isdir(suite):
        raise ParseError("bench needs a suite directory")
    paths = sorted(
        os.path.join(suite, f) for f in os.listdir(suite) if f.endswith(".json")
    )
    entries = [_bench_one(p, config) for p in paths]
    outdir = args.out or suite
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "bench_summary.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "status", "mode", "cost", "opt", "ratio", "runtime_s"])
        for e in entries:
            writer.writerow(
                [
                    e.get("instance"),
                    e.get("status"),
                    e.get("mode", ""),
                    e.get("cost", ""),
                    e.get("opt", ""),
                    e.get("ratio", ""),
                    f"{e.get('_runtime', 0):.3f}",
                ]
            )
    # the JSON summary is deterministic: runtimes stay out of it
    json_entries = [{k: v for k, v in e.items() if not k.startswith("_")} for e in entries]
    pio.write_json(os.path.join(outdir, "bench_summary.json"), {"results": json_entries})
    print(f"bench: {len(entries)} instances, summary in {outdir}")
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("PCSPAN_LOG", "WARNING")
    # checked here because basicConfig ignores `level` once the root logger
    # has handlers
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: PCSPAN_LOG={level!r} is not a logging level name", file=sys.stderr)
        return EXIT_PARSE
    logging.basicConfig(level=level.upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = make_config(args)
        if args.mode not in ("gen", "bench") and not args.instance:
            raise ParseError(f"--mode {args.mode} needs an instance file")
        if args.mode in ("pcs-int", "pcs-theta", "rcs", "hopset"):
            return cmd_solve(args, config)
        if args.mode == "junction":
            return cmd_junction(args, config)
        if args.mode == "verify":
            return cmd_verify(args, config)
        if args.mode == "gen":
            return cmd_gen(args, config)
        if args.mode == "bench":
            return cmd_bench(args, config)
        raise ParseError(f"unknown mode {args.mode}")
    except (ParseError, GenerationError) as exc:
        log.error("bad input: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleDemandError, InfeasibleWithinCapError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InternalInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PcspanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
