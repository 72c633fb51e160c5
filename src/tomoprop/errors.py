"""Exception types shared across the package.

Every error raised on purpose by tomoprop derives from TomopropError, so
callers (and the CLI) can separate domain failures from genuine bugs.
"""


class TomopropError(Exception):
    """Base class for all tomoprop domain errors."""


class GridError(TomopropError):
    """Grid is malformed for the requested operation (size, parity, spacing)."""


class SupportError(TomopropError):
    """A state or field carries non-negligible mass at or beyond a grid edge."""


class DegenerateError(TomopropError):
    """A construction collapsed to the zero function (e.g. odd cat with alpha=0)."""


class StepError(TomopropError):
    """Time step too large, or a step-wise invariant drifted past tolerance."""


class RangeError(TomopropError):
    """A time or argument lies outside the tabulated/solved range."""


class TimeError(TomopropError):
    """Time bookkeeping mismatch, e.g. composing maps whose endpoints differ."""


class CausticError(TomopropError):
    """Propagator evaluated at (or too close to) a focusing/caustic time."""


class ParseError(TomopropError):
    """Configuration document could not be parsed."""


class ValidationError(TomopropError):
    """Configuration parsed but violates one or more schema invariants.

    Carries the full list of violations so a user can fix everything in one
    pass instead of replaying the job once per field.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
