#!/usr/bin/env python3
"""Fingerprint the solver's reports on three fixed seeded sets.

Prints one SHA-256 over `json.dumps(report_to_dict(r), sort_keys=True)` of
all 80 reports in order, then the summed cost of each set:

- `solve_rcs` on the criterion-9 instances, seeds 3000-3049;
- `solve_pcs` integer on `gen_pcs(n=5, k=2, m=2, tau=1)`, seeds 5000-5019;
- `solve_pcs` theta on rational-negative `gen_pcs(n=4, k=2, m=1, tau=1)`,
  seeds 6000-6009.

It then prints a second SHA-256, over the `--mode junction` payloads
(`junction_to_dict`: root, edges, cost, density, resolved walks) of
`min_density_junction_tree` on the instances of the pcs-integer and
pcs-theta sets, in the same order.

Run it before and after a change: an equal digest means byte-identical
reports.  Usage: `PYTHONPATH=src python3 scripts/report_digest.py`.
"""

import hashlib
import json
from fractions import Fraction

from pcspan.generate import gen_pcs, gen_rcs
from pcspan.greedy import solve_pcs
from pcspan.io import junction_to_dict, report_to_dict
from pcspan.junction import min_density_junction_tree
from pcspan.reductions import solve_rcs


def rcs_reports():
    for seed in range(50):
        must = 1 + seed % 2
        avoid = 2 if (must == 1 and seed % 3 == 0) else 1
        yield solve_rcs(
            gen_rcs(n=5, k=2, must_visit=must, avoid=avoid, seed=3000 + seed, max_group_size=3)
        )


def integer_instances():
    for seed in range(5000, 5020):
        yield gen_pcs(n=5, k=2, m=2, tau=1, seed=seed)


def theta_instances():
    for seed in range(6000, 6010):
        yield gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=seed)


PCS_SETS = (
    ("pcs-integer", "integer", integer_instances),
    ("pcs-theta", "theta", theta_instances),
)


def pcs_reports(mode, instances):
    for inst in instances():
        yield solve_pcs(inst, mode)


def main():
    digest = hashlib.sha256()
    costs = []
    sets = [("rcs", rcs_reports())]
    sets += [(name, pcs_reports(mode, instances)) for name, mode, instances in PCS_SETS]
    for name, reports in sets:
        total = Fraction(0)
        for report in reports:
            digest.update(json.dumps(report_to_dict(report), sort_keys=True).encode())
            total += report.cost
        costs.append((name, total))
    print(digest.hexdigest())
    for name, total in costs:
        print(f"{name}: {total}")
    junction = hashlib.sha256()
    for _name, mode, instances in PCS_SETS:
        for inst in instances():
            tree = min_density_junction_tree(inst, mode)
            junction.update(json.dumps(junction_to_dict(tree, mode), sort_keys=True).encode())
    print(f"junction: {junction.hexdigest()}")


if __name__ == "__main__":
    main()
