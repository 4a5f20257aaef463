"""Map physical particle/barrier parameters to the reduced barrier strength A.

For a Coulomb barrier Z e^2/x and a particle of mass m at mean kinetic
energy E, the dimensionless strength is

    A = 2 pi Z e^2 / (hbar v0) = 2 pi Z alpha / (v0/c),

written through the fine-structure constant so no unit-system choice for
e^2 ever enters.  The momentum-space barrier scale a = 2 pi Z e^2 m/hbar
is reported both as the dimensionless a/(m c) = 2 pi Z alpha and in SI.
All constants are CODATA-2018, pinned in one table for reproducible output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, RegimeError, require_positive

__all__ = [
    "FINE_STRUCTURE",
    "AMU_EV",
    "AMU_KG",
    "SPEED_OF_LIGHT",
    "ELECTRON_MASS_AMU",
    "DEUTERON_MASS_AMU",
    "RELATIVISTIC_THRESHOLD",
    "ParticleSpec",
    "BarrierScale",
    "v0_over_c",
    "big_A",
    "little_a",
]

# CODATA-2018
FINE_STRUCTURE = 7.2973525693e-3      # alpha
AMU_EV = 931494102.42                 # 1 u in eV/c^2
AMU_KG = 1.66053906660e-27            # 1 u in kg
SPEED_OF_LIGHT = 299792458.0          # m/s
ELECTRON_MASS_AMU = 5.48579909065e-4
DEUTERON_MASS_AMU = 2.013553212745

# above v0/c = 0.1 the non-relativistic kinematics stop being trustworthy
RELATIVISTIC_THRESHOLD = 0.1


@dataclass(frozen=True)
class ParticleSpec:
    """Charge-number product, particle mass (amu), kinetic energy (eV)."""

    Z: float
    mass_amu: float
    kinetic_energy_ev: float

    def __post_init__(self):
        for name in ("Z", "mass_amu", "kinetic_energy_ev"):
            require_positive(name, getattr(self, name))


class BarrierScale(NamedTuple):
    a_over_mc: float  # a/(m c) = 2 pi Z alpha, energy-independent
    a_si: float       # kg m/s


def _effective_mass(spec: ParticleSpec, reduced_mass: bool) -> float:
    # reduced-mass convention: identical colliding pair, m -> m/2
    return spec.mass_amu / 2.0 if reduced_mass else spec.mass_amu


def _exp(x: float) -> float:
    """e^x, inf where that overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ln_v0_over_c(spec: ParticleSpec, reduced_mass: bool) -> float:
    """ln(v0/c), from logs."""
    m = _effective_mass(spec, reduced_mass)
    return 0.5 * (math.log(2.0) + math.log(spec.kinetic_energy_ev)
                  - math.log(m) - math.log(AMU_EV))


def v0_over_c(spec: ParticleSpec, reduced_mass: bool = False) -> float:
    """Mean packet velocity over c: sqrt(2 E / m c^2), non-relativistic;
    from logs where 2 E / m c^2 leaves the normal doubles, and inf where
    v0/c itself overflows."""
    m = _effective_mass(spec, reduced_mass)
    ratio = 2.0 * spec.kinetic_energy_ev / (m * AMU_EV)
    if sys.float_info.min <= ratio < math.inf:
        return math.sqrt(ratio)
    return _exp(_ln_v0_over_c(spec, reduced_mass))


def big_A(spec: ParticleSpec, reduced_mass: bool = False) -> float:
    """Reduced barrier strength A = a/p0 = 2 pi Z alpha / (v0/c), from logs
    where v0/c is subnormal.

    Raises RegimeError when v0/c exceeds 0.1 (see little_a), and
    DomainError where A exceeds the largest double.
    """
    a_over_mc = little_a(spec, reduced_mass).a_over_mc
    v0c = v0_over_c(spec, reduced_mass)
    if v0c >= sys.float_info.min:
        A = a_over_mc / v0c
    else:
        A = _exp(math.log(2.0 * math.pi * FINE_STRUCTURE) + math.log(spec.Z)
                 - _ln_v0_over_c(spec, reduced_mass))
    if A == math.inf:
        raise DomainError(
            f"A = 2 pi Z alpha/(v0/c) exceeds the largest double "
            f"{sys.float_info.max!r} at Z={spec.Z!r}, mass "
            f"{spec.mass_amu!r} u, energy {spec.kinetic_energy_ev!r} eV")
    return A


def little_a(spec: ParticleSpec, reduced_mass: bool = False) -> BarrierScale:
    """Momentum scale a = 2 pi Z e^2 m / hbar of the barrier kernel.

    Dimensionless form a/(m c) = 2 pi Z alpha does not depend on energy or
    mass; the SI value scales it by m c.  Consistency: big_A = a/p0 with
    p0 = m v0, i.e. big_A = (a/(m c)) / (v0/c).

    Raises RegimeError when v0/c exceeds 0.1: the map uses p0 = m v0 and
    E = p0^2/(2m), neither of which survives relativistic speeds.
    """
    v0c = v0_over_c(spec, reduced_mass)
    if v0c > RELATIVISTIC_THRESHOLD:
        raise RegimeError(
            f"v0/c = {v0c:.4g} exceeds {RELATIVISTIC_THRESHOLD}; "
            "non-relativistic map invalid")
    a_over_mc = 2.0 * math.pi * spec.Z * FINE_STRUCTURE
    m_kg = _effective_mass(spec, reduced_mass) * AMU_KG
    return BarrierScale(a_over_mc=a_over_mc, a_si=a_over_mc * m_kg * SPEED_OF_LIGHT)
