#!/usr/bin/env python3
"""Sweep seeded instances, solve them, and tabulate cost against the exact
brute-force optimum and the minimum junction-tree density."""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from pcspan.generate import gen_pcs
from pcspan.greedy import solve_pcs
from pcspan.oracle import brute_force_opt

# the junction-density oracle is the tests' reference and lives with them
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from junction_oracle import brute_force_min_density_junction  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--k", type=int, default=2)
    args = ap.parse_args()
    cap = 8  # edges per walk the brute-force oracles enumerate
    print(f"{'seed':>5} {'cost':>8} {'opt':>8} {'ratio':>7} {'min-density':>12}")
    ratios = []
    for i in range(args.count):
        seed = args.base_seed + i
        inst = gen_pcs(
            n=args.n, k=args.k, m=1, tau=1, regime="integer", seed=seed, budget_slack=1
        )
        report = solve_pcs(inst, "integer")
        opt, _ = brute_force_opt(inst, cap=cap)
        _r, density, _e, _m = brute_force_min_density_junction(inst, cap=cap)
        ratio = report.cost / opt if opt else Fraction(1)
        ratios.append(ratio)
        print(
            f"{seed:>5} {str(report.cost):>8} {str(opt):>8} "
            f"{float(ratio):>7.3f} {str(density):>12}"
        )
    ratios.sort()
    mid = len(ratios) // 2
    med = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
    print(f"median ratio: {float(med):.3f}")


if __name__ == "__main__":
    main()
