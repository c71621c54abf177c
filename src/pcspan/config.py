"""Solver configuration knobs with desk-scale defaults."""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError


@dataclass(frozen=True)
class SolverConfig:
    # height reduction: h = ceil(1/epsilon)
    epsilon: Fraction = Fraction(1, 2)
    # length-relaxation tolerance for the rational regime
    theta: Fraction = Fraction(1, 10)
    # master seed; per-iteration/per-run streams are derived from it
    seed: int = 0
    # product graphs larger than this many vertices are rejected up front
    max_product_vertices: int = 10**7
    # randomized rounding retries before partial acceptance / fallback
    rounding_retries: int = 64

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ParseError("epsilon must be positive")
        if self.theta <= 0:
            raise ParseError("theta must be positive")
        if self.rounding_retries < 1:
            raise ParseError("rounding retries must be at least 1")

    @property
    def height(self) -> int:
        return max(1, math.ceil(1 / Fraction(self.epsilon)))


DEFAULT_CONFIG = SolverConfig()
