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
pcs-theta sets, in the same order, and a third, over the HiGHS model
arrays (`start_`, `index_`, `value_`, `col_cost_`, `row_lower_`,
`row_upper_`) of every LP the 80 solves build, in build order, and the
number of those LPs with their total rows, columns and nonzeros.

Run it before and after a change: an equal digest means byte-identical
reports, and an equal model digest means HiGHS was given byte-identical
models.  Usage: `PYTHONPATH=src python3 scripts/report_digest.py`.
"""

import hashlib
import json
from array import array
from fractions import Fraction

import pcspan.lpsolve
from pcspan.generate import gen_pcs, gen_rcs
from pcspan.greedy import solve_pcs
from pcspan.io import junction_to_dict, report_to_dict
from pcspan.junction import min_density_junction_tree, product_graph_for
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


def hash_models(digest, size):
    """Wrap `lpsolve.highs_model` so that every model it builds is fed to
    `digest`, counted in the first entry of `size`, and its rows, columns
    and nonzeros are added to the other three; returns the original to put
    back."""
    original = pcspan.lpsolve.highs_model

    def hashed(lp):
        model = original(lp)
        matrix = model.a_matrix_
        size[0] += 1
        size[1] += model.num_row_
        size[2] += model.num_col_
        size[3] += len(matrix.index_)
        for code, values in (
            ("q", matrix.start_),
            ("q", matrix.index_),
            ("d", matrix.value_),
            ("d", model.col_cost_),
            ("d", model.row_lower_),
            ("d", model.row_upper_),
        ):
            data = array(code, values).tobytes()
            digest.update(len(data).to_bytes(8, "little") + data)
        return model

    pcspan.lpsolve.highs_model = hashed
    return original


def main():
    digest = hashlib.sha256()
    models = hashlib.sha256()
    size = [0, 0, 0, 0]
    costs = []
    sets = [("rcs", rcs_reports())]
    sets += [(name, pcs_reports(mode, instances)) for name, mode, instances in PCS_SETS]
    original = hash_models(models, size)
    try:
        for name, reports in sets:
            total = Fraction(0)
            for report in reports:
                digest.update(json.dumps(report_to_dict(report), sort_keys=True).encode())
                total += report.cost
            costs.append((name, total))
    finally:
        pcspan.lpsolve.highs_model = original
    print(digest.hexdigest())
    for name, total in costs:
        print(f"{name}: {total}")
    junction = hashlib.sha256()
    for _name, mode, instances in PCS_SETS:
        for inst in instances():
            tree = min_density_junction_tree(product_graph_for(inst, mode))
            junction.update(json.dumps(junction_to_dict(tree, mode), sort_keys=True).encode())
    print(f"junction: {junction.hexdigest()}")
    print(f"models: {models.hexdigest()}")
    print("model size: {} LPs, {} rows, {} columns, {} nonzeros".format(*size))


if __name__ == "__main__":
    main()
