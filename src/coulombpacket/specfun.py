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
    "log_diff_exp",
]

_LN10 = math.log(10.0)

# ln K1 (see log_bessel_k1).  From z = _K1_SERIES_BELOW up: the folded
# trapezoid rule with step 1/8 on u in [0, 6.5], 53 nodes, padded with
# zero weights to 64 columns for a fixed summation tree; each weight holds
# e^(-u^2).  Below: 12 terms of the ascending series in q = z^2/4, with
# coefficients 1/(k! (k+1)!) and (psi(k+1) + psi(k+2))/(k! (k+1)!).
_K1_SERIES_BELOW = 0.75
_K1_U2 = (np.arange(64) / 8.0) ** 2
_K1_W = np.where(np.arange(64) == 0, 0.125, 0.25) * np.exp(-_K1_U2)
_K1_W[53:] = 0.0
_K1_TERMS = 12
_K1_C = np.array([1.0 / (math.factorial(k) * math.factorial(k + 1))
                  for k in range(_K1_TERMS)])
# psi(k+1) + psi(k+2) = H_k + H_(k+1) - 2 gamma_E, with the harmonic
# numbers H_k = 1 + 1/2 + ... + 1/k, H_0 = 0
_K1_H = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1.0, _K1_TERMS + 1))))
_K1_D = _K1_C * (_K1_H[:-1] + _K1_H[1:] - 2.0 * 0.5772156649015329)


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


def log_bessel_k1(z):
    """ln K₁(z) for z > 0, the modified Bessel function of the second kind.

    Takes a float, which gives a float, or a 1-d array, which gives an
    array; every element is computed on its own, so its bits do not depend
    on the others.  For z >= 0.75 the substitution u = sqrt(2z) sinh(t/2)
    in K₁(z) = Int_0^inf e^(-z cosh t) cosh t dt gives

        e^z K₁(z) = z^(-1/2) Int_R e^(-u^2) (1 + u^2/z) / sqrt(2 + u^2/z) du,

    an even integrand analytic in |Im u| < sqrt(2z), on which the
    trapezoid rule converges geometrically (Trefethen & Weideman, SIAM
    Rev. 56 (2014)); the fixed 53-node rule is at rounding level there,
    and ln K₁ = ln(sum) - (1/2) ln z - z stays finite where K₁
    underflows (K₁(1000) ≈ e^-1003).  Below 0.75 the ascending series

        z K₁(z) = 1 + (z^2/2) ln(z/2) Σ q^k/(k!(k+1)!)
                      - (z^2/4) Σ (ψ(k+1) + ψ(k+2)) q^k/(k!(k+1)!),

    with q = z^2/4, gives ln K₁ = log1p(z K₁ - 1) - ln z.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    if z.ndim > 1 or flat.size == 0:
        raise DomainError(
            "log_bessel_k1 takes a float or a non-empty 1-d array")
    # every element is positive and finite when both extremes are
    require_positive("z", flat.min())
    require_positive("z", flat.max())
    out = np.empty(flat.shape)
    big = flat >= _K1_SERIES_BELOW
    out[big] = _log_k1_trapezoid(flat[big])
    if not big.all():
        out[~big] = _log_k1_series(flat[~big])
    return float(out[0]) if z.ndim == 0 else out


def _log_k1_trapezoid(z):
    """ln K₁ for z >= 0.75 by the folded trapezoid rule (log_bessel_k1)."""
    r = _K1_U2 / z[:, None]
    terms = _K1_W * (1.0 + r) / np.sqrt(2.0 + r)
    # a fixed tree of column adds, never a BLAS product, so that each
    # row's bits do not depend on the other rows
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        terms = terms[:, :half] + terms[:, half:]
    return np.log(terms[:, 0]) - 0.5 * np.log(z) - z


def _log_k1_series(z):
    """ln K₁ for 0 < z < 0.75 by the ascending series (log_bessel_k1)."""
    q = 0.25 * z * z
    s_i = np.full(z.shape, _K1_C[-1])
    s_psi = np.full(z.shape, _K1_D[-1])
    for c, d in zip(_K1_C[-2::-1], _K1_D[-2::-1]):
        s_i = s_i * q + c
        s_psi = s_psi * q + d
    return np.log1p(2.0 * q * np.log(0.5 * z) * s_i - q * s_psi) - np.log(z)


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
    terms are summed in input order.
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
    peak = terms.max()
    if peak == -np.inf:
        return -math.inf
    scaled = np.exp(terms - peak).ravel()
    if weights is not None:
        scaled *= weights.ravel()
    return float(peak + np.log(np.bincount(np.zeros(scaled.size, np.intp),
                                           scaled)[0]))


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
