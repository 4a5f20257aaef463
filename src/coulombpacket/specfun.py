"""Log-domain special functions and arithmetic primitives.

Everything downstream works with natural logs of positive magnitudes:
transmission probabilities reach e^-1000 and below, far outside the range
of IEEE doubles, while their logs stay comfortably representable.  The
helpers here are the only places allowed to move between a magnitude and
its log, apart from final display code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_positive

__all__ = [
    "LogMagnitude",
    "log_gamma",
    "log_bessel_k1",
    "log_bessel_k1_asymptotic",
    "log_sum_exp",
    "log_sum_exp_segments",
    "log_diff_exp",
]

_LN10 = math.log(10.0)

# scipy.special.k1e, bound by the first log_bessel_k1 call
_k1e = None


@dataclass(frozen=True)
class LogMagnitude:
    """A strictly positive quantity stored as its natural log.

    ``exp(ln_value)`` may underflow or overflow a double; ``ln_value``
    itself must stay finite.  Multiplication and division of magnitudes
    are addition and subtraction here, which is the entire point.
    """

    ln_value: float

    def __post_init__(self):
        if not math.isfinite(self.ln_value):
            raise DomainError("LogMagnitude requires a finite log value, got %r"
                              % (self.ln_value,))

    @classmethod
    def from_value(cls, x: float) -> "LogMagnitude":
        return cls(math.log(require_positive("x", x)))

    @property
    def log10(self) -> float:
        return self.ln_value / _LN10

    @property
    def value(self) -> float:
        """The represented magnitude; may underflow to 0.0 or overflow to inf."""
        try:
            return math.exp(self.ln_value)
        except OverflowError:
            return math.inf

    def __mul__(self, other: "LogMagnitude") -> "LogMagnitude":
        return LogMagnitude(self.ln_value + other.ln_value)

    def __truediv__(self, other: "LogMagnitude") -> "LogMagnitude":
        return LogMagnitude(self.ln_value - other.ln_value)

    def scientific(self, digits: int = 6) -> str:
        """Render as ``m.mmm...e±XXX`` in base 10 without ever exponentiating.

        The decimal exponent can exceed the double range (e.g. e^-1000 is
        about 5.1e-435), so mantissa and exponent are split from log10
        directly.
        """
        l10 = self.log10
        exp10 = math.floor(l10)
        mantissa = 10.0 ** (l10 - exp10)
        # rounding the mantissa may carry it to 10.0; renormalize
        if round(mantissa, digits) >= 10.0:
            mantissa /= 10.0
            exp10 += 1
        return f"{mantissa:.{digits}f}e{exp10:+d}"


def log_gamma(x: float) -> float:
    """ln Γ(x) for x > 0.

    Validated :func:`math.lgamma`; only positive arguments arise here
    (1/γ and 3/γ with γ > 0).
    """
    return math.lgamma(require_positive("x", x))


def log_bessel_k1(z: float) -> float:
    """ln K₁(z) for z > 0, the modified Bessel function of the second kind.

    Uses the exponentially scaled ``k1e(z) = e^z K₁(z)``, so the result is
    accurate for arguments up to 10⁴ and beyond where K₁ itself underflows
    (K₁(1000) ≈ e^-1003).  scipy's ``k1e`` is imported and bound on the
    first call, so only the γ = 1 Bessel route loads scipy, and later calls
    import nothing.
    """
    global _k1e
    if _k1e is None:
        from scipy.special import k1e as _k1e

    z = require_positive("z", z)
    return float(np.log(_k1e(z)) - z)


def log_bessel_k1_asymptotic(z: float) -> float:
    """Leading large-argument form ln[√(π/(2z)) e^-z].

    Exposed separately because the closed-form transmission result is often
    quoted with this replacement; the difference from :func:`log_bessel_k1`
    is ln(1 + 3/(8z) + ...) and vanishes as z → ∞.
    """
    z = require_positive("z", z)
    return 0.5 * math.log(math.pi / (2.0 * z)) - z


def log_sum_exp(terms, weights=None) -> float:
    """ln Σᵢ wᵢ exp(termᵢ) with positive weights, stabilized by the max term.

    ``terms`` of -inf are allowed (zero contributions); an all--inf input
    returns -inf.  Exact under a uniform additive shift of all terms.  The
    validated one-segment form of :func:`log_sum_exp_segments`.
    """
    terms = np.asarray(terms, dtype=float)
    if terms.size == 0:
        raise DomainError("log_sum_exp needs at least one term")
    if np.any(np.isnan(terms)) or np.any(terms == np.inf):
        raise DomainError("log_sum_exp terms must be < +inf and not NaN")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != terms.shape:
            raise DomainError("weights must match terms in shape")
        # every weight is positive and finite when both extremes are
        require_positive("weights", weights.min())
        require_positive("weights", weights.max())
        weights = weights.ravel()
    one = np.zeros(terms.size, dtype=np.intp)
    return float(log_sum_exp_segments(terms.ravel(), one, 1, weights)[0])


def log_sum_exp_segments(terms, segments, count, weights=None):
    """ln Σ wᵢ exp(termᵢ) over the terms of each of ``count`` segments.

    ``segments[i]`` in [0, count) names the segment of ``terms[i]``; each
    segment is shifted by its own max and summed in input order, so its
    result does not depend on the other segments.  A segment with no terms,
    or only -inf terms, gives -inf.  Unvalidated: terms must be < +inf and
    not NaN, and weights positive and finite.
    """
    peak = np.full(count, -np.inf)
    np.maximum.at(peak, segments, terms)
    peak = np.where(peak > -np.inf, peak, 0.0)
    scaled = np.exp(terms - peak[segments])
    if weights is not None:
        scaled *= weights
    with np.errstate(divide="ignore"):
        return peak + np.log(np.bincount(segments, weights=scaled,
                                         minlength=count))


def log_diff_exp(ln_hi: float, ln_lo: float) -> float:
    """ln(exp(ln_hi) - exp(ln_lo)) for ln_hi ≥ ln_lo; -inf when equal."""
    if ln_lo == -math.inf:
        return ln_hi
    if ln_lo > ln_hi:
        raise DomainError("log_diff_exp needs ln_hi >= ln_lo")
    d = ln_lo - ln_hi
    if d == 0.0:
        return -math.inf
    return ln_hi + math.log1p(-math.exp(d))
