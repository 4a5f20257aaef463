"""Physical-parameter map: (Z, mass, energy) to reduced barrier strength."""

import math

import pytest

from coulombpacket.errors import DomainError, RegimeError
from coulombpacket.physical import (
    AMU_KG,
    DEUTERON_MASS_AMU,
    ELECTRON_MASS_AMU,
    FINE_STRUCTURE,
    SPEED_OF_LIGHT,
    ParticleSpec,
    big_A,
    little_a,
    v0_over_c,
)


def deuteron(energy_ev):
    return ParticleSpec(Z=1.0, mass_amu=DEUTERON_MASS_AMU,
                        kinetic_energy_ev=energy_ev)


def test_deuteron_barrier_strengths_frozen():
    # CODATA-2018 inputs make these reproducible to the last digit
    assert big_A(deuteron(1e4)) == pytest.approx(14.041121925445278, rel=1e-13)
    assert big_A(deuteron(1.0)) == pytest.approx(1404.1121925445277, rel=1e-13)
    assert v0_over_c(deuteron(1e4)) == pytest.approx(0.0032654526246684475,
                                                     rel=1e-13)


def test_big_A_times_velocity_is_2_pi_Z_alpha():
    for E in (1.0, 1e2, 1e4):
        spec = deuteron(E)
        assert big_A(spec) * v0_over_c(spec) == pytest.approx(
            2.0 * math.pi * FINE_STRUCTURE, rel=1e-14)


def test_exact_scaling_laws():
    A0 = big_A(deuteron(1e4))
    z3 = ParticleSpec(Z=3.0, mass_amu=DEUTERON_MASS_AMU,
                      kinetic_energy_ev=1e4)
    assert big_A(z3) / A0 == pytest.approx(3.0, rel=1e-13)      # linear in Z
    assert big_A(deuteron(2.5e3)) / A0 == pytest.approx(2.0, rel=1e-13)
    # quadrupling the energy halves A: A ~ E^(-1/2)
    assert big_A(deuteron(4e4)) / A0 == pytest.approx(0.5, rel=1e-13)


def test_reduced_mass_convention():
    spec = deuteron(1e4)
    assert v0_over_c(spec, reduced_mass=True) == pytest.approx(
        math.sqrt(2.0) * v0_over_c(spec), rel=1e-14)
    assert big_A(spec, reduced_mass=True) == pytest.approx(
        big_A(spec) / math.sqrt(2.0), rel=1e-14)
    full = little_a(spec)
    half = little_a(spec, reduced_mass=True)
    assert half.a_over_mc == full.a_over_mc    # a/(mc) is mass-independent
    assert half.a_si == pytest.approx(full.a_si / 2.0, rel=1e-15)


def test_little_a_dimensionless_and_si():
    scale = little_a(deuteron(1e4))
    assert scale.a_over_mc == 2.0 * math.pi * FINE_STRUCTURE
    assert scale.a_over_mc == pytest.approx(0.04585061844473497, rel=1e-15)
    expected_si = scale.a_over_mc * DEUTERON_MASS_AMU * AMU_KG * SPEED_OF_LIGHT
    assert scale.a_si == pytest.approx(expected_si, rel=1e-15)
    # energy-independent: the barrier scale is a property of the potential
    assert little_a(deuteron(1.0)) == scale


def test_relativistic_regime_rejected():
    # 10 keV electrons move at ~0.2c: outside the non-relativistic map
    electron = ParticleSpec(Z=1.0, mass_amu=ELECTRON_MASS_AMU,
                            kinetic_energy_ev=1e4)
    assert v0_over_c(electron) > 0.1
    with pytest.raises(RegimeError):
        big_A(electron)
    with pytest.raises(RegimeError):
        little_a(electron)


@pytest.mark.parametrize("kwargs", [
    dict(Z=0.0, mass_amu=2.0, kinetic_energy_ev=1.0),
    dict(Z=-1.0, mass_amu=2.0, kinetic_energy_ev=1.0),
    dict(Z=1.0, mass_amu=0.0, kinetic_energy_ev=1.0),
    dict(Z=1.0, mass_amu=2.0, kinetic_energy_ev=-5.0),
    dict(Z=1.0, mass_amu=math.nan, kinetic_energy_ev=1.0),
    dict(Z=1.0, mass_amu=2.0, kinetic_energy_ev=math.inf),
])
def test_particle_spec_validation(kwargs):
    with pytest.raises(DomainError):
        ParticleSpec(**kwargs)


@pytest.mark.parametrize("Z, mass, energy", [
    (1e300, 1e300, 1e300),            # m c^2 overflows
    (1e-300, 1e308, 1e-300),          # v0/c is subnormal, 4.6e-309
    (1e-300, 1.7e308, 5e-324),        # v0/c has 7 bits, 7.9e-321
    (1.0, 1e-300, 1e-300),            # 2 E / m c^2 is normal: plain
])
def test_big_A_from_logs_where_v0_leaves_the_doubles(Z, mass, energy):
    # A = 2 pi Z alpha sqrt(m c^2 / 2 E) scales as Z sqrt(m / E)
    A1 = big_A(ParticleSpec(Z=1.0, mass_amu=1.0, kinetic_energy_ev=1.0))
    A = big_A(ParticleSpec(Z=Z, mass_amu=mass, kinetic_energy_ev=energy))
    assert A == pytest.approx(Z / math.sqrt(energy) * math.sqrt(mass) * A1,
                              rel=1e-12)


def test_big_A_beyond_the_doubles_is_a_domain_error():
    spec = ParticleSpec(Z=1e300, mass_amu=1e300, kinetic_energy_ev=1e-300)
    one = ParticleSpec(Z=1.0, mass_amu=1.0, kinetic_energy_ev=1.0)
    assert v0_over_c(spec) == pytest.approx(1e-300 * v0_over_c(one),
                                            rel=1e-12)
    with pytest.raises(DomainError, match="largest double"):
        big_A(spec)


def test_v0_over_c_overflow_is_relativistic():
    spec = ParticleSpec(Z=1.0, mass_amu=5e-324, kinetic_energy_ev=1.7e308)
    assert v0_over_c(spec) == math.inf
    with pytest.raises(RegimeError):
        big_A(spec)
