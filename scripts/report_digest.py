#!/usr/bin/env python3
"""Fingerprint the solver's reports on three fixed seeded sets.

Prints one SHA-256 over `json.dumps(report_to_dict(r), sort_keys=True)` of
all 80 reports in order, then the summed cost of each set:

- `solve_rcs` on the criterion-9 instances, seeds 3000-3049;
- `solve_pcs` integer on `gen_pcs(n=5, k=2, m=2, tau=1)`, seeds 5000-5019;
- `solve_pcs` theta on rational-negative `gen_pcs(n=4, k=2, m=1, tau=1)`,
  seeds 6000-6009.

Run it before and after a change: an equal digest means byte-identical
reports.  Usage: `PYTHONPATH=src python3 scripts/report_digest.py`.
"""

import hashlib
import json
from fractions import Fraction

from pcspan.generate import gen_pcs, gen_rcs
from pcspan.greedy import solve_pcs
from pcspan.io import report_to_dict
from pcspan.reductions import solve_rcs


def rcs_reports():
    for seed in range(50):
        must = 1 + seed % 2
        avoid = 2 if (must == 1 and seed % 3 == 0) else 1
        yield solve_rcs(
            gen_rcs(n=5, k=2, must_visit=must, avoid=avoid, seed=3000 + seed, max_group_size=3)
        )


def integer_reports():
    for seed in range(5000, 5020):
        yield solve_pcs(gen_pcs(n=5, k=2, m=2, tau=1, seed=seed), "integer")


def theta_reports():
    for seed in range(6000, 6010):
        inst = gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=seed)
        yield solve_pcs(inst, "theta")


def main():
    digest = hashlib.sha256()
    costs = []
    for name, reports in (
        ("rcs", rcs_reports()),
        ("pcs-integer", integer_reports()),
        ("pcs-theta", theta_reports()),
    ):
        total = Fraction(0)
        for report in reports:
            digest.update(json.dumps(report_to_dict(report), sort_keys=True).encode())
            total += report.cost
        costs.append((name, total))
    print(digest.hexdigest())
    for name, total in costs:
        print(f"{name}: {total}")


if __name__ == "__main__":
    main()
