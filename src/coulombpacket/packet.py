"""Generalized-Gaussian momentum packets in reduced units y = p/p0.

The family is parametrized by a shape exponent gamma and the dimensionless
variance B = sigma_p/p0^2.  The two derived constants

    beta = [Gamma(3/gamma)/Gamma(1/gamma)]^(gamma/2)
    N    = gamma sqrt(Gamma(3/gamma)) / (2 Gamma(1/gamma)^(3/2))

are fixed so that the density integrates to 1 over the whole real line and
its second central moment equals B.  gamma = 2 is the Gaussian case
(beta = 1/2), gamma = 1 the two-sided exponential (beta = sqrt(2)).

Here are the constants, the density and tabulated densities.  The moments
that confirm those two identities (central_moment) are integrated by the
quadrature engine in transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, TableFormatError, require_positive
from .specfun import log_gamma

__all__ = [
    "GAMMA_MIN",
    "GAMMA_MAX",
    "PacketShape",
    "DensityTable",
    "shape_constants",
    "density_exponent",
    "log_density",
    "read_density_table",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz  # numpy 2.x rename

# Supported shape-exponent range.  Outside it the Gamma arguments 1/gamma,
# 3/gamma or the tail decay exp(-|u|^gamma) make quadrature unreliable.
GAMMA_MIN = 0.1
GAMMA_MAX = 10.0


def _gamma_reduced(z: float) -> tuple[float, float]:
    """(f, r) with Gamma(z) = f Gamma(r) and r in [1, 2), by the recurrence
    Gamma(z + 1) = z Gamma(z)."""
    f = 1.0
    while z >= 2.0:
        z -= 1.0
        f *= z
    while z < 1.0:
        f /= z
        z += 1.0
    return f, z


def shape_constants(gamma: float) -> tuple[float, float]:
    """Return (beta, log_N) for a shape exponent gamma > 0.

    beta is the ratio power [Gamma(3/g)/Gamma(1/g)]^(g/2).  Both Gamma
    arguments are first reduced into [1, 2) by the recurrence, Gamma(z) =
    f Gamma(r), and the ratio is taken as (f3/f1) (Gamma(r3)/Gamma(r1)).
    Wherever 2/g is an integer the two reduced arguments coincide, the
    Gamma values cancel exactly and beta is the rational ratio of the
    recurrence factors raised to g/2: sqrt(2) at gamma=1 and exactly 1/2
    at gamma=2.  A plain math.gamma ratio is 1 ulp off there, because
    math.gamma(1.5) is not bit-for-bit half of math.gamma(0.5).  For
    gamma < 3/170, where Gamma(3/g) overflows, beta comes from ln Gamma.
    The normalizer is O(1) but kept as a log since it always enters
    log-domain sums.
    """
    gamma = require_positive("gamma", gamma)
    if gamma >= 3.0 / 170.0:
        f3, r3 = _gamma_reduced(3.0 / gamma)
        f1, r1 = _gamma_reduced(1.0 / gamma)
        beta = ((f3 / f1) * (math.gamma(r3) / math.gamma(r1))) ** (0.5 * gamma)
    else:
        beta = math.exp(0.5 * gamma * (log_gamma(3.0 / gamma)
                                       - log_gamma(1.0 / gamma)))
    log_N = (math.log(gamma) + 0.5 * log_gamma(3.0 / gamma) - math.log(2.0)
             - 1.5 * log_gamma(1.0 / gamma))
    return beta, log_N


@dataclass(frozen=True)
class PacketShape:
    """Immutable packet descriptor: (gamma, B) plus the derived constants."""

    gamma: float
    B: float
    beta: float
    log_N: float

    def __post_init__(self):
        require_positive("gamma", self.gamma)
        if not (GAMMA_MIN < self.gamma <= GAMMA_MAX):
            raise RangeError(
                f"gamma={self.gamma} outside supported range "
                f"({GAMMA_MIN}, {GAMMA_MAX}]")
        require_positive("B", self.B)

    @classmethod
    def from_gamma(cls, gamma: float, B: float) -> "PacketShape":
        # resolve shape_constants through the module at call time so a
        # perturbed constant (fault injection in the validation suite)
        # propagates into every derived quantity
        beta, log_N = shape_constants(gamma)
        return cls(gamma=float(gamma), B=float(B), beta=beta, log_N=log_N)


def density_exponent(u, beta, gamma, half_lnB):
    """The density exponent s = beta (|u|^2 / B)^(gamma/2) at u = y - 1.

    Evaluated as beta exp(gamma (ln|u| - (1/2) ln B)), so extreme B cause
    no premature under/overflow; at u = 0, ln|u| = -inf gives exactly 0,
    the gamma > 0 limit.  Takes floats or arrays.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return beta * np.exp(gamma * (np.log(np.abs(u)) - half_lnB))


def log_density(y, shape: PacketShape):
    """ln of the dimensionless momentum density at y (scalar or array).

    log_N - (1/2) ln B - beta (|y-1|^2 / B)^(gamma/2), finite for every
    finite y (see density_exponent).
    """
    half_lnB = 0.5 * math.log(shape.B)
    out = shape.log_N - half_lnB - density_exponent(
        np.asarray(y, dtype=float) - 1.0, shape.beta, shape.gamma, half_lnB)
    if np.ndim(y) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DensityTable:
    """Tabulated momentum density |phi(y)|^2 on strictly increasing y >= 0."""

    y: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "density", d)
        if y.ndim != 1 or d.ndim != 1 or y.size != d.size:
            raise TableFormatError("table needs matching 1-d y and density columns")
        if y.size < 2:
            raise TableFormatError("table needs at least two points")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(d)):
            raise TableFormatError("table entries must be finite")
        if y[0] < 0.0:
            raise TableFormatError("y must be non-negative (reduced momentum)")
        if not np.all(np.diff(y) > 0.0):
            raise TableFormatError("y must be strictly increasing")
        if np.any(d < 0.0):
            raise TableFormatError("densities must be non-negative")
        if self.mass() > 1.0 + 1e-6:
            raise TableFormatError(
                f"table mass {self.mass():.10g} exceeds 1 beyond tolerance")

    def mass(self) -> float:
        """Trapezoid mass of the table; at most 1 + 1e-6 by construction."""
        return float(_trapz(self.density, self.y))

    def reduced_variance(self) -> float:
        """B-like diagnostic: Var[y]/E[y]^2 under the (mass-normalized) table."""
        m0 = self.mass()
        if m0 <= 0.0:
            return 0.0
        m1 = float(_trapz(self.density * self.y, self.y)) / m0
        m2 = float(_trapz(self.density * self.y ** 2, self.y)) / m0
        var = max(m2 - m1 * m1, 0.0)
        if m1 <= 0.0:
            return math.inf
        return var / (m1 * m1)


def read_density_table(path) -> DensityTable:
    """Parse a density-table CSV: header ``y,density``, ``#`` comments allowed.

    Raises TableFormatError with a 1-based line number on malformed input.
    """
    ys: list[float] = []
    ds: list[float] = []
    header_seen = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if not header_seen:
                    if [c.strip().lower() for c in line.split(",")] != ["y", "density"]:
                        raise TableFormatError(
                            f"expected header 'y,density', got {line!r}",
                            line=lineno)
                    header_seen = True
                    continue
                cells = line.split(",")
                if len(cells) != 2:
                    raise TableFormatError(
                        f"expected two comma-separated values, got {line!r}",
                        line=lineno)
                try:
                    ys.append(float(cells[0]))
                    ds.append(float(cells[1]))
                except ValueError as exc:
                    raise TableFormatError(f"non-numeric cell in {line!r}",
                                           line=lineno) from exc
                if len(ys) >= 2 and ys[-1] <= ys[-2]:
                    raise TableFormatError(
                        f"y values must be strictly increasing "
                        f"({ys[-2]!r} then {ys[-1]!r})", line=lineno)
    except (OSError, UnicodeDecodeError) as exc:
        raise TableFormatError(f"cannot read table file: {exc}") from exc
    if not header_seen:
        raise TableFormatError("missing 'y,density' header", line=1)
    return DensityTable(y=np.asarray(ys), density=np.asarray(ds))
