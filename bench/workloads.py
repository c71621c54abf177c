"""The benchmark's workloads: seeded instance sets, the solver call for each,
and the outside check of every answer.

Generator seeds derive from the workload seed alone: slot ``j`` of a run with
workload seed ``s`` tries generator seeds ``s * 1_000_000 + j * 1_000 + t``
for ``t = 0, 1, ...`` and keeps the first instance that falls inside the
workload's size class.  The slot, not the seed, fixes each instance's shape
(group counts, packing or covering), so every seed gives the same mix of
shapes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from pcspan import io as pio
from pcspan.generate import gen_pcs, gen_rcs
from pcspan.greedy import solve_pcs
from pcspan.model import is_feasible
from pcspan.product import layer_bounds
from pcspan.rcsp import verify_solution
from pcspan.reductions import is_routing_feasible, rcs_to_pcs, solve_rcs

TRIES_PER_SLOT = 1_000


@dataclass(frozen=True)
class Outcome:
    """What one solve produced, reduced to what the checks compare."""

    cost: Fraction
    edges: tuple
    witnesses: tuple  # (demand index, edge ids) pairs
    rounds: int


@dataclass(frozen=True)
class Workload:
    name: str
    count: int  # instances per run
    make: Callable  # (slot, generator seed) -> instance, or None outside the size class
    solve: Callable  # instance -> (raw solver result, Outcome)
    check: Callable  # (instance, raw result) -> True when the answer verifies
    to_dict: Callable  # instance -> JSON-able dict (pcspan.io)


def gen_seed(seed: int, slot: int, attempt: int) -> int:
    return seed * 1_000_000 + slot * 1_000 + attempt


def generate(workload: Workload, seed: int) -> list:
    """[(generator seed, instance)] for the workload seed; deterministic."""
    cases = []
    for slot in range(workload.count):
        for attempt in range(TRIES_PER_SLOT):
            g = gen_seed(seed, slot, attempt)
            instance = workload.make(slot, g)
            if instance is not None:
                cases.append((g, instance))
                break
        else:
            raise RuntimeError(f"{workload.name}: slot {slot} found no instance in its size class")
    return cases


def instances_sha256(workload: Workload, cases) -> str:
    blob = json.dumps([workload.to_dict(inst) for _g, inst in cases], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def outcomes_sha256(outcomes) -> str:
    blob = json.dumps(
        [None if o is None
         else [str(o.cost), list(o.edges), [[d, list(w)] for d, w in o.witnesses], o.rounds]
         for o in outcomes]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _outcome(report) -> Outcome:
    return Outcome(
        cost=report.cost,
        edges=tuple(report.edges),
        witnesses=tuple((di, w.edges) for di, w in sorted(report.witnesses.items())),
        rounds=report.diagnostics["rounds"],
    )


def _witnesses_inside(report, demand_count: int) -> bool:
    chosen = set(report.edges)
    return len(report.witnesses) == demand_count and all(
        set(w.edges) <= chosen for w in report.witnesses.values()
    )


# -- rcs ------------------------------------------------------------------------

# Criterion 9's instances span 100 to 11,000 product labels and 0.1 to 22 s
# each.  The class bounds the label count, the static property that tracks
# solve time best, and caps the length budget, whose long tail blows the
# layered LPs up to 70,000 rows.
RCS_LABELS = (200, 450)
RCS_MAX_LENGTH = 9


def _make_rcs(slot: int, seed: int):
    # criterion 9's generator and shape schedule
    must = 1 + slot % 2
    avoid = 2 if (must == 1 and slot % 3 == 0) else 1
    rcs = gen_rcs(n=5, k=2, must_visit=must, avoid=avoid, seed=seed, max_group_size=3)
    bounds = layer_bounds(rcs_to_pcs(rcs)[0])
    in_class = (
        RCS_LABELS[0] <= bounds.label_count() <= RCS_LABELS[1]
        and bounds.upper[0] <= RCS_MAX_LENGTH
    )
    return rcs if in_class else None


def _solve_rcs(rcs):
    report = solve_rcs(rcs)
    return report, _outcome(report)


def _check_rcs(rcs, report) -> bool:
    return (
        _witnesses_inside(report, len(rcs.demands))
        and all(
            is_routing_feasible(report.witnesses[di], d, rcs)
            for di, d in enumerate(rcs.demands)
        )
        and report.cost == sum((rcs.edges[e].cost for e in report.edges), Fraction(0))
    )


# -- pcs-int --------------------------------------------------------------------

# Cuts the rare large label spaces (up to 64 labels and 27 s per instance).
# At 16 the LPs shrink below the HiGHS threshold and that path stops running.
PCS_MAX_LABELS = 32


def _make_pcs(slot: int, seed: int):
    # the one resource alternates between packing and covering by slot
    inst = gen_pcs(
        n=8, k=4, m=1, tau=1, regime="integer", budget_slack=1, seed=seed, packing=slot % 2
    )
    return inst if layer_bounds(inst).label_count() <= PCS_MAX_LABELS else None


def _solve_pcs(inst):
    report = solve_pcs(inst, "integer")
    return report, _outcome(report)


def _check_pcs(inst, report) -> bool:
    rechecked = verify_solution(inst, report.edges)
    return (
        report.verified
        and all(entry["feasible"] for entry in rechecked.values())
        and _witnesses_inside(report, len(inst.demands))
        and all(is_feasible(report.witnesses[di], d, inst) for di, d in enumerate(inst.demands))
        and report.cost == inst.total_cost(report.edges)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rcs",
            count=60,
            make=_make_rcs,
            solve=_solve_rcs,
            check=_check_rcs,
            to_dict=pio.rcs_to_dict,
        ),
        Workload(
            name="pcs-int",
            count=46,
            make=_make_pcs,
            solve=_solve_pcs,
            check=_check_pcs,
            to_dict=pio.pcs_to_dict,
        ),
    )
}
