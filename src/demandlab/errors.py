"""Typed exceptions raised across the library.

Every failure mode that callers are expected to branch on gets its own
class; all of them derive from :class:`DemandLabError` so a bare
``except DemandLabError`` catches any library-specific problem without
swallowing genuine bugs.  ``exit_code`` is the command-line exit status
for each class: 2 for bad input, 3 for a numeric failure, 4 for a failed
demonstration check.
"""

from __future__ import annotations


class DemandLabError(Exception):
    """Base class for all library-specific failures."""

    exit_code = 3


class BoundViolation(DemandLabError):
    """A family parameter fell outside its admissible range.

    Carries the offending value and the bound so callers can report both.
    """

    exit_code = 2

    def __init__(self, message: str, *, delta: float | None = None,
                 bound: float | None = None):
        super().__init__(message)
        self.delta = delta
        self.bound = bound


class NoDensity(DemandLabError):
    """The population has no joint density (a degenerate component)."""


class DegenerateRatio(DemandLabError):
    """The good-value/money-value ratio is ill-defined or unbounded."""


class QuadratureFailure(DemandLabError):
    """Adaptive integration hit its refinement cap above tolerance.

    ``row`` is the index of the worst row when the integrand had rows.
    """

    def __init__(self, message: str, *, achieved: float | None = None,
                 requested: float | None = None, row: int | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested
        self.row = row


class MonotonicityViolation(DemandLabError):
    """A curve that must be monotone is not, beyond tolerance."""


class BoundaryMassZero(DemandLabError):
    """No probability mass near the lower ratio endpoint."""


class DemoFailure(DemandLabError):
    """A demonstration assertion failed; names the check and the value."""

    exit_code = 4

    def __init__(self, message: str, *, check: str | None = None,
                 value: float | None = None):
        super().__init__(message)
        self.check = check
        self.value = value


class TailMassExceeded(DemandLabError):
    """A tabulated distribution leaks too much mass past its grid."""


class IllConditioned(DemandLabError):
    """A linear system's condition estimate exceeded the safety cap."""

    def __init__(self, message: str, *, order: int | None = None,
                 condition: float | None = None):
        super().__init__(message)
        self.order = order
        self.condition = condition


class NonFiniteMoment(DemandLabError):
    """A moment or a slice moment is not finite in double precision, or
    a slice moment underflows it."""


class InsufficientPrices(DemandLabError):
    """Too few distinct prices to determine the requested moments."""


class ScenarioError(DemandLabError):
    """A scenario document failed schema validation."""

    exit_code = 2


class SpecialFunctionFailure(DemandLabError):
    """A special function returned NaN for arguments that are not NaN."""
