"""Exact rational parsing/formatting ("num/den" strings, ints as shorthand),
and the integer scales the hot loops compute in."""

import math
from fractions import Fraction

from .errors import ParseError


def parse_rational(value) -> Fraction:
    """Parse an int, "num/den" string, or plain integer string into a Fraction."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed rational {value!r}: {exc}") from None
        return frac
    raise ParseError(f"not a rational: {value!r}")


def format_rational(q: Fraction):
    """Canonical JSON form: bare int when integral, else "num/den"."""
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def common_scale(values) -> int:
    """The least positive L with v * L an integer for every value (ints or
    Fractions): the lcm of their denominators, 1 for ints."""
    return math.lcm(*{v.denominator for v in values})


def to_units(q, scale: int) -> int:
    """q * scale as an int; `scale` must be a multiple of q's denominator."""
    return q.numerator * (scale // q.denominator)
