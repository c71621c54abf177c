"""Exception hierarchy shared across the solver suite."""


class PcspanError(Exception):
    """Base class for all package errors."""


class ParseError(PcspanError):
    """Malformed instance/report files or field values."""


class ContractError(PcspanError):
    """A caller violated an operation precondition."""


class InstanceMismatchError(ContractError):
    """Walk or edge references an edge id outside the instance."""


class InfeasibleDemandError(PcspanError):
    """A demand admits no feasible walk (the problem is undefined)."""


class InfeasibleWithinCapError(PcspanError):
    """No feasible walk found within the configured hop cap."""


class DivisionUndefinedError(PcspanError):
    """A condition-number or scaling denominator is zero."""


class ResourceLimitError(PcspanError):
    """Construction or enumeration exceeds a configured size cap."""


class ScaleError(ResourceLimitError):
    """Brute-force oracle refused: instance too large for exact search."""


class RoundingFailureError(PcspanError):
    """Randomized rounding connected no demand.  Never raised: the rounding
    samples once and connects every bucket demand; the name stays for the
    benchmark tracer, which imports it."""


class EssentialityViolationError(PcspanError):
    """A demand cannot be resolved from any root in the essential set."""


class InternalInvariantError(PcspanError):
    """A property guaranteed by construction failed; indicates a bug."""


class NoResolvingRootError(InternalInvariantError):
    """No candidate root resolves an open demand.  With every root a
    candidate this is a bug; with the roots restricted to an essential set
    it means the set misses some demand's walks."""
