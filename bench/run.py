"""pcspan benchmark: seeded workloads solved one at a time, end to end.

Untraced run (end-to-end metrics):
    python3 bench/run.py --workload rcs --seed 1 --seconds 45 --trace 0
Traced run (per-layer metrics):
    python3 bench/run.py --workload rcs --seed 1 --seconds 45 --trace 1

Run from the repository root; the solver is imported from ./src.  One
process, one client, a closed loop: each instance is solved only after the
previous one finished.  The last line of standard output is the result
object; the line before it holds the environment and input fingerprint and
the details behind each metric (see bench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The baseline uses seed 1.  Seed 2029 is reserved for confirming a claimed
# gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process that only performs set-up, so its wall time
    # from spawn to exit is one set-up sample
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit():
    """HEAD's commit read from .git without running git, or None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pcspan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fingerprint(wl, seed, cases) -> dict:
    import numpy
    import scipy

    from workloads import instances_sha256

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src_sha256(),
        "workload": wl.name,
        "seed": seed,
        "instances": len(cases),
        "generator_seeds": [g for g, _inst in cases],
        "instances_sha256": instances_sha256(wl, cases),
    }


def set_up(wl, seed):
    """Instance generation, fingerprint and one untimed warm-up solve."""
    from workloads import generate

    cases = generate(wl, seed)
    fp = fingerprint(wl, seed, cases)
    wl.solve(cases[0][1])
    return cases, fp


def measure_setup(args) -> list:
    """Wall seconds of SETUP_PROBES fresh processes that start, import,
    generate and warm up, then exit."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=PROBE_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace')}")
    return samples


class Pass:
    """One solve of every case, each timed alone."""

    def __init__(self, wl, cases, tracer=None):
        self.seconds = []
        self.outcomes = []
        self.raw = []
        for g, inst in cases:
            gc.collect()
            started = time.perf_counter()
            try:
                if tracer is None:
                    raw, outcome = wl.solve(inst)
                else:
                    with tracer.solve():
                        raw, outcome = wl.solve(inst)
            except Exception as exc:  # a failed solve is counted, never dropped
                print(f"solve failed for generator seed {g}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                raw, outcome = None, None
            self.seconds.append(time.perf_counter() - started)
            self.raw.append(raw)
            self.outcomes.append(outcome)
        self.total = sum(self.seconds)


def run_passes(wl, cases, budget_s, make_tracer=None) -> tuple:
    """Passes until the next one would overrun budget_s (at least one)."""
    passes, tracers = [], []
    started = time.perf_counter()
    while True:
        tracer = None
        if make_tracer is not None:
            tracer = make_tracer()
            tracer.install()
        try:
            passes.append(Pass(wl, cases, tracer))
        finally:
            if tracer is not None:
                tracer.restore()
                tracers.append(tracer)
        if time.perf_counter() - started + passes[-1].total > budget_s:
            return passes, tracers


def verify(wl, cases, first) -> list:
    """Per case: True when the answer re-checks, False when it does not, and
    None when the solve raised and there is no answer to check."""
    ok = []
    for (g, inst), raw in zip(cases, first.raw):
        if raw is None:
            ok.append(None)
            continue
        try:
            ok.append(bool(wl.check(inst, raw)))
        except Exception as exc:
            print(f"check raised: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok.append(False)
        if not ok[-1]:
            print(f"wrong answer for generator seed {g}", file=sys.stderr)
    return ok


def tail_percentile(values) -> dict:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return {"pct": None, "seconds": None}
    return {"pct": round(100 * (k + 1) / len(ordered), 1), "seconds": ordered[k]}


def tally(passes, checked) -> tuple:
    """(attempted, failed, wrong).  A solve fails when it raised or its answer
    failed the outside check; only the latter is a wrong answer."""
    attempted = failed = wrong = 0
    for p in passes:
        for outcome, good in zip(p.outcomes, checked):
            attempted += 1
            failed += outcome is None or not good
            wrong += good is False
    return attempted, failed, wrong


def untraced_run(wl, cases, args) -> tuple:
    from workloads import outcomes_sha256

    passes, _ = run_passes(wl, cases, args.seconds)
    first = passes[0]
    attempted, failed, wrong = tally(passes, verify(wl, cases, first))
    repeats = all(p.outcomes == first.outcomes for p in passes)
    per_case = [statistics.median(ts) for ts in zip(*(p.seconds for p in passes))]
    total_cost = sum((o.cost for o in first.outcomes if o is not None), 0)
    metrics = {
        "solve_s": {"value": statistics.median(p.total for p in passes), "unit": "s"},
        "instance_p50_s": {"value": statistics.median(per_case), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
        },
        "total_cost": {"value": float(total_cost), "unit": "cost"},
    }
    detail = {
        "passes": len(passes),
        "pass_solve_s": [p.total for p in passes],
        "instance_samples": len(per_case) * len(passes),
        "instance_s": per_case,
        "instance_tail": tail_percentile(per_case),
        "failed_frac": failed / attempted,
        "total_cost_exact": str(total_cost),
        "outcomes_sha256": outcomes_sha256(first.outcomes),
        "outputs_repeat_across_passes": repeats,
    }
    return metrics, detail, attempted, failed, repeats and not wrong


def traced_run(wl, cases, args) -> tuple:
    from tracer import Tracer, layer_metrics
    from workloads import outcomes_sha256

    plain, _ = run_passes(wl, cases, args.seconds / 2)
    traced, tracers = run_passes(wl, cases, args.seconds / 2, make_tracer=Tracer)
    attempted, failed, wrong = tally(plain + traced, verify(wl, cases, plain[0]))
    per_pass = [layer_metrics(t) for t in tracers]
    metrics = {}
    counts_repeat = True
    for name in per_pass[0]:
        values = [m[name]["value"] for m in per_pass]
        if per_pass[0][name]["unit"] == "s":
            value = statistics.median(values)
        else:
            counts_repeat &= len(set(values)) == 1
            value = values[0]
        metrics[name] = {"value": value, "unit": per_pass[0][name]["unit"]}
    untraced_s = statistics.median(p.total for p in plain)
    traced_s = statistics.median(p.total for p in traced)
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}

    outcomes = plain[0].outcomes
    # per solved instance, the traced span counts against its own report
    spans = [
        (t.per_solve[i], outcome, inst)
        for t in tracers
        for i, (outcome, (_g, inst)) in enumerate(zip(outcomes, cases))
        if outcome is not None
    ]
    checks = {
        "outputs_repeat_across_passes": all(p.outcomes == outcomes for p in plain + traced),
        "counts_repeat_across_traced_passes": counts_repeat,
        "greedy_rounds_match_reports": all(
            c["greedy.round"] == o.rounds for c, o, _inst in spans
        ),
        "junction_roots_match_rounds": all(
            c["junction.root"] == o.rounds * inst.n for c, o, inst in spans
        ),
    }
    layer_seconds = {
        name: m["value"] for name, m in metrics.items()
        if m["unit"] == "s" and name != "trace.overhead_s"
    }
    detail = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "untraced_solve_s": untraced_s,
        "traced_solve_s": traced_s,
        "failed_frac": failed / attempted,
        "outcomes_sha256": outcomes_sha256(outcomes),
        "self_time_share": {
            name: round(value / traced_s, 4) for name, value in layer_seconds.items()
        },
        "unattributed_share": round(1 - sum(layer_seconds.values()) / traced_s, 4),
        "checks": checks,
    }
    return metrics, detail, attempted, failed, all(checks.values()) and not wrong


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "pcspan" / "__init__.py").is_file():
        print(f"bench: no pcspan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(wl, args.seed)
        return 0

    setup_samples = measure_setup(args) if args.trace == 0 else []
    cases, fp = set_up(wl, args.seed)
    if args.trace == 0:
        metrics, detail, attempted, failed, correct = untraced_run(wl, cases, args)
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
        detail["setup_samples_s"] = setup_samples
    else:
        metrics, detail, attempted, failed, correct = traced_run(wl, cases, args)
    print(json.dumps({"fingerprint": fp, "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
