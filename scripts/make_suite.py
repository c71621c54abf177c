#!/usr/bin/env python3
"""Generate a benchmark suite of seeded instances (pcs, integer and rational)."""

import argparse
import os

from pcspan import io as pio
from pcspan.generate import gen_pcs
from pcspan.rcsp import hop_bound


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--base-seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    for i in range(args.count):
        seed = args.base_seed + i
        regime = "integer" if i % 3 else "rational-negative"
        inst = gen_pcs(
            n=4 + i % 3,
            k=1 + i % 3,
            m=1 + i % 2,
            tau=1,
            regime=regime,
            seed=seed,
            budget_slack=1,
        )
        hop_bound(inst)  # raises for a demand without a feasible walk
        path = os.path.join(args.outdir, f"pcs-{regime}-{seed:03d}.json")
        pio.write_json(path, pio.pcs_to_dict(inst))
        print(path)


if __name__ == "__main__":
    main()
