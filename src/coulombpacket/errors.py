"""Exception types shared across the package.

All domain/range violations raise subclasses of ValueError so that callers
who do not care about the distinction can catch the builtin.  Convergence
failures are RuntimeError subclasses and carry the best available estimate,
because a partially converged log-probability is still useful diagnostic
output.  require_positive is the one positive-and-finite input check.
"""

import math


class DomainError(ValueError):
    """An input combination is outside the mathematical domain of a routine."""


class RangeError(ValueError):
    """A parameter is outside the range the implementation supports."""


class RegimeError(ValueError):
    """Inputs are outside the physical regime where the model is meaningful."""


class ConvergenceError(RuntimeError):
    """An evaluation gave no valid result: quadrature did not reach its
    tolerance, or a route gave ln T above 0, which no probability reaches,
    or outside the double range.

    Attributes
    ----------
    ln_T : float
        Best available estimate of the log-probability, or nan.
    quad_error_ln : float or None
        Error estimate attached to ``ln_T``; None where the route has none.
    """

    def __init__(self, message, ln_T=None, quad_error_ln=None):
        super().__init__(message)
        self.ln_T = ln_T
        self.quad_error_ln = quad_error_ln


class TableFormatError(ValueError):
    """A tabulated packet file is malformed.

    Attributes
    ----------
    line : int or None
        1-based line number of the offending row, if known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class AcceptanceDataError(RuntimeError):
    """The frozen acceptance-target data file is missing or unreadable."""


def require_positive(name: str, value) -> float:
    """value as a float; DomainError unless it is positive and finite."""
    v = float(value)
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"{name} must be positive and finite, got {v!r}")
    return v
