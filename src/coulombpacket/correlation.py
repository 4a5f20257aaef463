"""Correlated packets: variance inflation and exponent-scaling comparison.

A coordinate-momentum correlation r inflates the momentum variance as
sigma_p = sigma_p0/(1-r^2).  For Gaussian packets the leading transmission
exponent goes like -(3/2)(a^2/sigma_p)^(1/3), so the inflation rescales the
exponent by exactly (1-r^2)^(1/3) -- not by the (1-r^2)^(1/2) an
"effective Planck constant" hbar/sqrt(1-r^2) would suggest.  Both factors
are reported side by side; the cube-root identity is exact at the level of
the leading exponent and only asymptotic for the full closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, require_positive

__all__ = [
    "CorrelatedPacket",
    "ScalingComparison",
    "sigma_p_of_r",
    "leading_exponent_gamma2",
    "scaling_compare",
]


def _check_r(r: float) -> float:
    r = float(r)
    if not math.isfinite(r) or r < 0.0 or r >= 1.0:
        raise DomainError(
            f"correlation coefficient must satisfy 0 <= r < 1, got {r!r} "
            "(variance diverges at r = 1)")
    return r


@dataclass(frozen=True)
class CorrelatedPacket:
    """Correlation coefficient plus the two scales the exponent depends on.

    sigma_x never enters independently: only r = sigma_xp/sqrt(sigma_x
    sigma_p) and the uncorrelated momentum variance matter here.
    """

    r: float
    sigma_p0: float
    a_squared_over_sigma: float

    def __post_init__(self):
        _check_r(self.r)
        for name in ("sigma_p0", "a_squared_over_sigma"):
            require_positive(name, getattr(self, name))


class ScalingComparison(NamedTuple):
    cube_root: float    # (1-r^2)^(1/3): actual exponent scaling, gamma = 2
    square_root: float  # (1-r^2)^(1/2): effective-Planck-constant rule
    hbar_ratio: float   # 1/sqrt(1-r^2)


def sigma_p_of_r(pkt: CorrelatedPacket) -> float:
    """Inflated momentum variance sigma_p0/(1-r^2)."""
    return pkt.sigma_p0 / (1.0 - pkt.r * pkt.r)


def leading_exponent_gamma2(a2_over_sigma: float) -> float:
    """Leading Gaussian-packet transmission exponent -(3/2) x^(1/3).

    x = a^2/sigma_p (A^2/B in reduced units).  Satisfies the exact identity
    leading_exponent_gamma2(x (1-r^2)) =
        (1-r^2)^(1/3) * leading_exponent_gamma2(x).
    """
    x = require_positive("a^2/sigma", a2_over_sigma)
    return -1.5 * float(np.cbrt(x))


def scaling_compare(r: float) -> ScalingComparison:
    """Both candidate exponent-scaling factors and the hbar inflation ratio.

    The cube root is what the gamma = 2 leading exponent actually does under
    sigma_p -> sigma_p/(1-r^2); the square root is what rescaling hbar by
    1/sqrt(1-r^2) would predict.  Their ratio (1-r^2)^(-1/6) exceeds 1 for
    every r in (0, 1), so the two rules genuinely disagree.
    """
    r = _check_r(r)
    omr2 = 1.0 - r * r
    return ScalingComparison(cube_root=float(np.cbrt(omr2)),
                             square_root=math.sqrt(omr2),
                             hbar_ratio=1.0 / math.sqrt(omr2))
