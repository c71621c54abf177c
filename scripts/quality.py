#!/usr/bin/env python3
"""Quality yardstick: the solver's cost against the exact optimum.

For each benchmark workload (`bench/workloads.py`) and seed, solves every
instance the way the benchmark does and prints Σcost, Σopt, the number of
instances at the optimum and the worst ratio cost / opt.  "opt" is
`oracle.brute_force_opt` over walks of at most `oracle.ENUM_CAP` edges, so it
is an upper bound on the true optimum; an `rcs` instance goes through
`rcs_to_pcs` first.

A change that alters reports names these figures before and after, at seeds
1 and 2029.  Usage, from the repository root:
`PYTHONPATH=src python3 scripts/quality.py [--seeds 1 2029] [--workloads rcs pcs-int]`.
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from pcspan.oracle import brute_force_opt
from pcspan.reductions import rcs_to_pcs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads as W  # noqa: E402


@dataclass(frozen=True)
class Quality:
    cost: Fraction  # Σ solver cost
    opt: Fraction  # Σ brute-force optimum
    at_opt: int  # instances whose cost equals their optimum
    count: int
    worst: Fraction  # largest cost / opt


def quality(name: str, seed: int) -> Quality:
    workload = W.WORKLOADS[name]
    cost = opt = Fraction(0)
    at_opt = 0
    worst = Fraction(1)
    cases = W.generate(workload, seed)
    for _g, instance in cases:
        _report, outcome = workload.solve(instance)
        pcs = rcs_to_pcs(instance)[0] if name == "rcs" else instance
        best, _edges = brute_force_opt(pcs)
        cost += outcome.cost
        opt += best
        if outcome.cost == best:
            at_opt += 1
        else:
            worst = max(worst, outcome.cost / best)
    return Quality(cost, opt, at_opt, len(cases), worst)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workloads", nargs="+", default=sorted(W.WORKLOADS))
    args = ap.parse_args(argv)
    for name in args.workloads:
        for seed in args.seeds:
            q = quality(name, seed)
            print(
                f"{name} seed {seed}: cost {q.cost}, opt {q.opt}, "
                f"at opt {q.at_opt}/{q.count}, worst ratio {q.worst}"
            )


if __name__ == "__main__":
    main()
