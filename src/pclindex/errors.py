"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed arguments (non-permutations,
out-of-range indices, bad shapes); :func:`_is_level` is the one test of a
state or level argument.  The classes below mark failures that carry
domain meaning and that callers may want to catch selectively.
"""


def _is_level(j, cap) -> bool:
    """Whether j is a level in 0..cap: an integer ``operator.index`` takes, not a bool."""
    return hasattr(type(j), "__index__") and not isinstance(j, bool) and 0 <= j <= cap


class PclIndexError(Exception):
    """Base class for domain-level failures."""


class StructureError(PclIndexError):
    """A set system violates accessibility/augmentability mid-algorithm."""


class AssumptionError(PclIndexError):
    """Model parameters violate a regularity assumption required here."""


class DegeneracyError(PclIndexError):
    """A recursion hit a nonpositive denominator it cannot recover from."""


class UnsupportedModelError(PclIndexError):
    """The model lies outside the scope of the requested computation."""


class InfeasibleTargetError(PclIndexError):
    """A constrained-control target is outside the achievable range."""


class NumericalRangeError(PclIndexError):
    """A computation left the floating-point range (an overflow to inf or
    a NaN), so its result would be meaningless."""


class InternalConsistencyError(PclIndexError):
    """Two computation paths that must agree did not; indicates a bug
    or a silently violated precondition, never user error."""
