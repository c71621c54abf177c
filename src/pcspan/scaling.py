"""Length scaling for the rational/negative regime.

Rounds every edge length up to the next multiple of Delta =
theta * Bdgt_min / Hop-bound.  Feasible walks with fewer than Hop-bound edges
stay theta-feasible after scaling, and theta-feasible scaled walks are
theta-feasible in the base instance (the scaled length dominates the true
one).  The integer regime bypasses this module entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError
from .model import PcsInstance, condition_numbers
from .rcsp import hop_bound


@dataclass(frozen=True)
class ScaledInstance:
    base: PcsInstance
    theta: Fraction
    delta: Fraction
    units: tuple  # d_e per edge; scaled length = d_e * delta
    hop_bound_value: int


def round_lengths_to_delta(lengths, delta: Fraction) -> tuple:
    """Integer multiples d with (d - 1) * delta < length <= d * delta."""
    return tuple(math.ceil(Fraction(length) / delta) for length in lengths)


def scale_instance(instance: PcsInstance, theta) -> ScaledInstance:
    theta = Fraction(theta)
    if theta <= 0:
        raise ContractError("theta must be positive")
    hop = hop_bound(instance)
    delta = theta * condition_numbers(instance).bdgt_min / hop
    units = round_lengths_to_delta((e.res[0] for e in instance.edges), delta)
    return ScaledInstance(
        base=instance,
        theta=theta,
        delta=delta,
        units=units,
        hop_bound_value=hop,
    )


def compute_delta(instance: PcsInstance, theta) -> Fraction:
    """Delta = theta * Bdgt_min / Hop-bound, the unit lengths round up to."""
    return scale_instance(instance, theta).delta
