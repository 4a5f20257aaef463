"""Log-domain special functions against mpmath and closed forms."""

import builtins
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coulombpacket.errors import DomainError
from coulombpacket.specfun import (
    LogMagnitude,
    log_bessel_k1,
    log_bessel_k1_asymptotic,
    log_gamma,
)
from coulombpacket.transmission import _exp_sums


# --- log_gamma ---------------------------------------------------------

@pytest.mark.parametrize("x, expected", [
    (1.0, 0.0),
    (2.0, 0.0),
    (3.0, math.log(2.0)),
    (6.0, math.log(120.0)),
    (0.5, 0.5 * math.log(math.pi)),
])
def test_log_gamma_exact_points(x, expected):
    assert log_gamma(x) == pytest.approx(expected, abs=1e-14)


@given(x=st.floats(min_value=0.05, max_value=60.0))
def test_log_gamma_recurrence(x):
    # ln Gamma(x+1) = ln Gamma(x) + ln x
    assert log_gamma(x + 1.0) == pytest.approx(
        log_gamma(x) + math.log(x), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
def test_log_gamma_domain(x):
    with pytest.raises(DomainError):
        log_gamma(x)


# --- ln K1 -------------------------------------------------------------

@pytest.mark.parametrize("z, expected", [
    (1e-3, 6.907751517131146),       # ~ ln(1/z) as z -> 0
    (1.0, -0.5076519482107524),
    (1000.0, -1003.2277114741825),   # K1 itself underflows near z ~ 700
])
def test_log_bessel_k1_frozen(z, expected):
    assert log_bessel_k1(z) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("z", np.geomspace(1e-3, 1e4, 15).tolist())
def test_log_bessel_k1_against_mpmath(z):
    expected = float(mp.log(mp.besselk(1, mp.mpf(z))))
    assert log_bessel_k1(z) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _route_z(A, B):
    """The K1 argument of the gamma = 1 Bessel route at (A, B)."""
    return 2.0 * math.sqrt(A * math.sqrt(2.0 / B))


# both sides of the series/trapezoid switch at 0.75, the zero of ln K1
# near 0.7, and the route's extremes in B at its smallest A
K1_POINTS = sorted(
    np.geomspace(1e-300, 1e8, 41).tolist()
    + [0.5, 0.7, 0.74, 0.7499999999999999, 0.75, 0.76, 1.0, 10.0]
    + [_route_z(10.0, 1e12), _route_z(10.0, 1e-13)])


@pytest.mark.parametrize("z", K1_POINTS)
def test_log_bessel_k1_matches_mpmath_over_its_range(z):
    with mp.workdps(40):
        expected = float(mp.log(mp.besselk(1, mp.mpf(z))))
    assert log_bessel_k1(z) == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_route_extremes_reach_both_k1_branches():
    assert _route_z(10.0, 1e12) == pytest.approx(0.0075, rel=1e-2)
    assert _route_z(10.0, 1e-13) > 1e4


def test_log_bessel_k1_array_bits_match_scalar_calls():
    z = np.array(K1_POINTS[::-1])
    out = log_bessel_k1(z)
    assert out.shape == z.shape
    assert [v.hex() for v in out.tolist()] == \
        [log_bessel_k1(v).hex() for v in z.tolist()]
    assert type(log_bessel_k1(2.0)) is float


@pytest.mark.parametrize("z", [[1.0, 0.0], [1.0, math.inf], [], [[1.0]]])
def test_log_bessel_k1_rejects_bad_arrays(z):
    with pytest.raises(DomainError):
        log_bessel_k1(z)


def test_log_bessel_k1_imports_nothing(monkeypatch):
    imported = []
    real_import = builtins.__import__

    def spy(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", spy)
    first = log_bessel_k1(50.0)
    second = log_bessel_k1(50.0)
    monkeypatch.undo()
    assert imported == []
    assert second.hex() == first.hex()


def test_asymptotic_form_is_lower_bound_and_converges():
    zs = np.geomspace(1.0, 1e4, 25)
    gaps = [log_bessel_k1(z) - log_bessel_k1_asymptotic(z) for z in zs]
    assert all(g > 0.0 for g in gaps)                  # K1 > sqrt(pi/2z) e^-z
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # gap shrinks with z
    # leading correction is ln(1 + 3/(8z))
    assert gaps[-1] == pytest.approx(3.0 / (8.0 * zs[-1]), rel=1e-2)


@pytest.mark.parametrize("z", [0.0, -2.0, math.inf, math.nan])
def test_log_bessel_k1_domain(z):
    with pytest.raises(DomainError):
        log_bessel_k1(z)
    with pytest.raises(DomainError):
        log_bessel_k1_asymptotic(z)


# --- log-sum-exp -----------------------------------------------------------

def log_sum_exp(terms):
    """ln of the sum of exp(terms) by the engine's _exp_sums, shifted by the
    largest term: shift + ln(sum)."""
    t = np.array(terms, dtype=float)
    shift = t.max(keepdims=True)
    return float(shift[0] + np.log(
        _exp_sums(t, np.zeros(t.size, np.intp), shift, 1)[0]))


def test_log_sum_exp_examples():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert log_sum_exp([-1000.0, -1000.0]) == pytest.approx(
        -1000.0 + math.log(2.0), abs=1e-12)
    # a weight folded into its term
    assert log_sum_exp([math.log(3.0)]) == pytest.approx(math.log(3.0))
    # -inf terms are zero contributions, not errors
    assert log_sum_exp([-math.inf, 0.0]) == 0.0
    # each q sums its own terms, shifted by its own shift
    sums = _exp_sums(np.array([0.0, -700.0, 1.0, -700.0]),
                     np.array([0, 1, 0, 1]), np.array([1.0, -700.0]), 2)
    assert sums.tolist() == pytest.approx([1.0 + math.exp(-1.0), 2.0],
                                          rel=1e-15)


@given(
    terms=st.lists(st.floats(min_value=-1e6, max_value=700.0),
                   min_size=1, max_size=20),
    shift=st.floats(min_value=-1e5, max_value=1e5),
)
@settings(max_examples=200)
def test_log_sum_exp_shift_invariance(terms, shift):
    t = np.asarray(terms)
    assert log_sum_exp(t + shift) == pytest.approx(
        log_sum_exp(t) + shift, rel=1e-13, abs=1e-9)


# --- LogMagnitude --------------------------------------------------------

def test_log_magnitude_survives_double_under_overflow():
    # e^-1000 ~ 5.08e-435 and e^1000 are far outside the double range
    assert LogMagnitude(-1000.0).scientific(6) == "5.075959e-435"
    assert LogMagnitude(1000.0).scientific(2) == "1.97e+434"


def test_log_magnitude_scientific_rendering():
    assert LogMagnitude(math.log(2.5)).log10 == pytest.approx(
        math.log10(2.5), rel=1e-15)
    assert LogMagnitude(math.log(1.5)).scientific(3) == "1.500e+0"
    assert LogMagnitude(math.log(7e123)).scientific(6) == "7.000000e+123"
    # a mantissa that rounds up to 10.0 must carry into the exponent
    assert LogMagnitude(math.log(9.9999999e5)).scientific(6) == "1.000000e+6"


@pytest.mark.parametrize("bad_ln", [math.inf, -math.inf, math.nan])
def test_log_magnitude_requires_finite_log(bad_ln):
    with pytest.raises(DomainError):
        LogMagnitude(bad_ln)
