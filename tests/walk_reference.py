"""Test-side references over the walk oracle (`pcspan.rcsp`).

`validate_demands` is the feasibility rule stated through the witness
search, the reference that `rcsp.hop_bound` and the product graph's
`require_feasible_demands` are checked against.  `lengths_from` exposes the
oracle's hop tables from one source, so the DP tests read `rcsp.relax`
itself.
"""

from pcspan.errors import InfeasibleDemandError
from pcspan.model import length_scale
from pcspan.rcsp import _successors, default_hop_cap, feasible_witness, relax, zero_config


def validate_demands(instance):
    """Raise `InfeasibleDemandError` for the first demand, by ascending
    source and then in instance order, that has no feasible walk."""
    for d in sorted(instance.demands, key=lambda e: e.source):
        if feasible_witness(instance, d) is None:
            raise InfeasibleDemandError(
                f"demand ({d.source},{d.target}) admits no feasible walk"
            )


def lengths_from(instance, source, max_hops=None) -> list:
    """The oracle's hop tables from `source` over every edge: `tables[h]`
    maps each (vertex, config) state reached by a walk of at most h edges to
    its minimal length, an int in units of 1 / `length_scale(instance)`."""
    if max_hops is None:
        max_hops = default_hop_cap(instance)
    arcs, _ = _successors(
        instance, instance.edges, range(len(instance.edges)), length_scale(instance)
    )
    return relax(arcs, (source, zero_config(instance)), max_hops)
