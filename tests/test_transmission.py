"""Transmission evaluators against a frozen brute-force oracle grid.

Reference ln T values were produced by two independent oracles (mpmath
tanh-sinh quadrature at 40 significant digits, and a float log-domain
Simpson rule with Richardson extrapolation over 2^17-point panels; see
tests/brute_oracle.py) agreeing with each other to better than 1e-11
before being frozen here.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coulombpacket import transmission as tr
from coulombpacket.errors import (
    ConvergenceError,
    DomainError,
    RangeError,
    RegimeError,
    TableFormatError,
)
from coulombpacket.packet import DensityTable, PacketShape, log_density
from coulombpacket.transmission import (
    BarrierQuery,
    G_param,
    evaluate,
    evaluate_many,
    ln_T_bessel_gamma1,
    ln_T_from_table,
    ln_T_quadrature,
    ln_T_steepest,
    log_integrand,
    plane_wave_log_D,
    planewave_validity,
    saddle_point_approx,
    saddle_point_numeric,
)


# --- kernel and validity ---------------------------------------------------

def test_plane_wave_log_D():
    assert plane_wave_log_D(700.0, 1.0) == -700.0
    assert plane_wave_log_D(10.0, 2.0) == -5.0
    for bad_y in (0.0, -1.0):
        with pytest.raises(DomainError):
            plane_wave_log_D(10.0, bad_y)
    with pytest.raises(DomainError):
        plane_wave_log_D(0.0, 1.0)


def test_planewave_validity_threshold():
    v, ok = planewave_validity(10.0, 1e-6)
    assert v == pytest.approx(0.01, rel=1e-12) and ok
    v, ok = planewave_validity(1.0, 0.010000001)
    assert v > 0.1 and not ok         # strict comparison at the edge
    _, ok = planewave_validity(700.0, 1.0)
    assert not ok


# --- G parameter -------------------------------------------------------------

def test_G_param_worked_value():
    assert G_param(700.0, 0.1, 2.0) == 70.0
    assert G_param(700.0, 1e-4, 1.0) == pytest.approx(
        7.0 / math.sqrt(2.0), rel=1e-13)


def test_G_param_overflow_gives_inf():
    # B^(gamma/2) = 1e500 overflows a Python float power, which raises
    # rather than returning inf; G itself is out of range too
    assert G_param(1.0, 1e100, 10.0) == math.inf
    assert G_param(1e12, 1e300, 2.0) == math.inf


@pytest.mark.parametrize("method", ["quadrature", "steepest_descent"])
@pytest.mark.parametrize("A, B, gamma", [(1.0, 1e100, 10.0),
                                         (1e12, 1e300, 2.0)])
def test_overflowing_G_is_reported_as_none(method, A, B, gamma):
    res = evaluate(BarrierQuery(A, B, gamma, method=method))
    assert res.G is None
    assert res.y_star_numeric is None and res.y_star_approx is None
    assert math.isfinite(res.ln_T)


def test_G_param_survives_power_underflow():
    # B^(gamma/2) underflows a double here; the log-domain rescue must kick in
    G = G_param(1e300, 1e-250, 4.0)
    from coulombpacket.packet import shape_constants
    beta4 = shape_constants(4.0)[0]
    expected = math.exp(math.log(1e300) + 2.0 * math.log(1e-250)
                        - math.log(4.0 * beta4))
    assert G == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("A, B, gamma", [
    (0.0, 1.0, 2.0), (1.0, -1.0, 2.0), (1.0, 1.0, 0.0),
    (math.nan, 1.0, 2.0), (1.0, math.inf, 2.0),
])
def test_G_param_domain(A, B, gamma):
    with pytest.raises(DomainError):
        G_param(A, B, gamma)


# --- saddle machinery ------------------------------------------------------

@pytest.mark.parametrize("G, gamma, expected", [
    (70.0, 2.0, 4.483022257915927),
    (1.0, 2.0, 1.465571231876768),       # the cubic y^3 - y^2 - 1 root
    (1e6, 2.0, 100.33444691355265),
    (50.0, 0.5, 13.220890796402404),
])
def test_saddle_point_numeric_frozen(G, gamma, expected):
    assert saddle_point_numeric(G, gamma) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("G", [0.5, 2.0, 25.0, 1e6])
def test_saddle_point_gamma1_closed_form(G):
    assert saddle_point_numeric(G, 1.0) == math.sqrt(G)


def test_saddle_point_no_stationary_point_small_G():
    # gamma < 1 with small G: the exponent is monotone on (1, inf)
    with pytest.raises(ConvergenceError):
        saddle_point_numeric(3.0, 0.3)
    # same gamma, large G: the upper branch exists
    assert saddle_point_numeric(1e4, 0.3) > 1.0


@given(
    lnG=st.floats(min_value=-4.0, max_value=18.0),
    gamma=st.floats(min_value=0.15, max_value=10.0),
)
@example(lnG=-3.0, gamma=1.125)
@settings(max_examples=150)
def test_saddle_root_satisfies_stationarity(lnG, gamma):
    G = math.exp(lnG)
    try:
        y = saddle_point_numeric(G, gamma)
    except ConvergenceError:
        return   # no interior stationary point: a legitimate outcome
    if gamma == 1.0:
        assert y == math.sqrt(G)
        return
    assert y > 1.0
    # residual of ln G = 2 ln y + (gamma-1) ln(y-1) at the reported root
    resid = lnG - 2.0 * math.log(y) - (gamma - 1.0) * math.log(y - 1.0)
    # Near y = 1 one ulp of y can move the residual by far more than 1e-9
    # (lnG = -3, gamma = 1.125: y - 1 = 3.8e-11, 7.35e-7 per ulp), so no
    # double meets 1e-9 there; allow two ulps of y through d(resid)/dy.
    slope = abs(2.0 / y + (gamma - 1.0) / (y - 1.0))
    assert abs(resid) <= 1e-9 + slope * 2.0 * math.ulp(y)


def _saddle_brackets(count, gamma_lo, gamma_hi, seed):
    """(args, t_lo, t_hi) of the saddle solve for seeded random (G, gamma)
    with a stationary point."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        lnG, gamma = rng.uniform(-8.0, 30.0), rng.uniform(gamma_lo, gamma_hi)
        G = math.exp(lnG)
        try:
            t_lo, t_hi = tr._saddle_bracket(G, gamma)
        except ConvergenceError:
            continue
        out.append(((math.log(G), gamma), t_lo, t_hi))
    return out


def test_brentq_matches_scipy_bit_for_bit():
    from scipy import optimize

    brackets = (_saddle_brackets(1000, 0.1, 1.0, seed=31)
                + _saddle_brackets(1000, 1.0, 10.0, seed=32))
    for args, t_lo, t_hi in brackets:
        kw = dict(args=args, xtol=1e-14, rtol=8.9e-16, maxiter=200)
        ours = tr._brentq(tr._saddle_shifted, t_lo, t_hi, **kw)
        theirs = optimize.brentq(tr._saddle_shifted, t_lo, t_hi, **kw)
        assert ours == theirs, (args, t_lo, t_hi)


def test_brentq_many_matches_brentq_bit_for_bit(monkeypatch):
    brackets = (_saddle_brackets(1000, 0.1, 1.0, seed=31)
                + _saddle_brackets(1000, 1.0, 10.0, seed=32))
    # at t = 0 the residual of ln G = 2 ln 2 is exactly 0, at either end
    zero = 2.0 * math.log(2.0)
    brackets += [((zero, g), lo, hi) for g in (0.5, 2.0)
                 for lo, hi in ((0.0, 1.0), (-1.0, 0.0))]
    columns = list(zip(*((*args, t_lo, t_hi) for args, t_lo, t_hi in brackets)))
    # 5 steps leave most brackets without a root
    for maxiter, unsolved in ((200, 0), (5, 1000)):
        kw = dict(xtol=1e-14, rtol=8.9e-16, maxiter=maxiter)
        roots = tr._brentq_many(*columns, **kw).tolist()
        assert roots[-4:] == [0.0, 0.0, 0.0, 0.0]
        assert sum(math.isnan(r) for r in roots) >= unsolved
        for (args, t_lo, t_hi), root in zip(brackets, roots):
            try:
                expected = tr._brentq(tr._saddle_shifted, t_lo, t_hi,
                                      args=args, **kw)
            except ConvergenceError:
                assert math.isnan(root), (args, t_lo, t_hi)
            else:
                assert root.hex() == expected.hex(), (args, t_lo, t_hi)
    (args, t_lo, t_hi), = _saddle_brackets(1, 1.0, 10.0, seed=33)
    with pytest.raises(DomainError):     # no sign change in [t_hi, t_hi + 1]
        tr._brentq_many([args[0]], [args[1]], [t_hi], [t_hi + 1.0],
                        *tr._SADDLE_TOL)

    # a saddle the steps do not reach is published as None, in a block as
    # in saddle_point_numeric
    monkeypatch.setattr(tr, "_SADDLE_TOL", tr._SADDLE_TOL[:2] + (6,))
    rng = np.random.default_rng(35)
    queries = [BarrierQuery(A, B, g, "steepest_descent") for A, B, g in zip(
        np.exp(rng.uniform(math.log(1.0), math.log(1e4), 60)),
        np.exp(rng.uniform(math.log(1e-6), math.log(1.0), 60)),
        rng.uniform(0.2, 6.0, 60))]
    block = [r.y_star_numeric for r in evaluate_many(queries)]
    assert block.count(None) > 10      # 4 at the default maxiter
    alone = [tr._head("", q.gamma, *tr._saddle(
                 q.A, PacketShape.from_gamma(q.gamma, q.B)))["y_star_numeric"]
             for q in queries]
    assert block == alone
    assert any(y is not None for y in block)


def test_saddle_residual_matches_logaddexp_form_bit_for_bit():
    # the residual computes ln(1 + e^t) in math, as np.logaddexp(0, t) does
    rng = np.random.default_rng(34)
    edges = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 800.0, -800.0,
             37.0, -37.0, 709.8, -745.2, math.inf, -math.inf]
    ts = (rng.normal(0.0, 5.0, 2000).tolist()
          + rng.uniform(-800.0, 800.0, 2000).tolist() + edges)
    for lnG, gamma in ((-3.0, 1.125), (2.3, 2.0), (50.0, 0.5), (0.0, 10.0)):
        for t in ts:
            with np.errstate(invalid="ignore"):
                expected = (lnG - 2.0 * np.logaddexp(0.0, t)
                            - (gamma - 1.0) * t)
            assert tr._saddle_shifted(t, lnG, gamma).hex() == \
                float(expected).hex(), (t, lnG, gamma)


def test_brentq_gives_up_with_convergence_error():
    (args, t_lo, t_hi), = _saddle_brackets(1, 1.0, 10.0, seed=33)
    with pytest.raises(ConvergenceError):
        tr._brentq(tr._saddle_shifted, t_lo, t_hi, args=args, xtol=1e-14,
                   rtol=8.9e-16, maxiter=2)
    with pytest.raises(DomainError):     # no sign change in [t_hi, t_hi + 1]
        tr._brentq(tr._saddle_shifted, t_hi, t_hi + 1.0, args=args,
                   xtol=1e-14, rtol=8.9e-16, maxiter=200)


def test_saddle_point_approx_form_and_convergence():
    assert saddle_point_approx(1000.0, 2.0) == pytest.approx(
        1000.0 ** (1.0 / 3.0) + 1.0 / 3.0, rel=1e-14)
    for gamma in (1.5, 2.0, 3.0):
        errs = []
        for G in (1e2, 1e4, 1e6):
            y = saddle_point_numeric(G, gamma)
            errs.append(abs(saddle_point_approx(G, gamma) - y) / y)
        assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("func", [saddle_point_numeric, saddle_point_approx])
def test_saddle_domain(func):
    with pytest.raises(DomainError):
        func(0.0, 2.0)
    with pytest.raises(DomainError):
        func(10.0, -1.0)


# --- integrand ----------------------------------------------------------

def test_log_integrand_closed_form():
    shape = PacketShape.from_gamma(2.0, 0.1)
    # -A/y - beta (y-1)^2/B with beta = 1/2
    assert log_integrand(1.5, 3.0, shape) == pytest.approx(
        -2.0 - 0.5 * 0.25 / 0.1, rel=1e-13)
    assert log_integrand(1.0, 5.0, shape) == -5.0
    assert log_integrand(0.0, 3.0, shape) == -math.inf
    assert log_integrand(-2.0, 3.0, shape) == -math.inf
    arr = log_integrand(np.array([0.5, 1.0, 2.0]), 3.0, shape)
    assert arr.shape == (3,) and arr[1] == -3.0


def _coordinate_exponents(A, shape, y):
    """h(y) from each engine coordinate that reaches y, in both kernel
    forms, with the coordinate's Jacobian and kernel offset taken off."""
    out = []
    for far in (False, True):
        (right, _), (left, _), (low, _) = tr._coordinates(A, shape, far)
        offset = 0.0 if far else A
        ln_c, p = right[3], right[4]
        reach = [(low, 1.0 - y, 1.0)] if y < 1.0 else []
        if y > 0.5:
            cols = right if y > 1.0 else left
            q = math.exp((math.log(abs(y - 1.0)) - ln_c) / p)
            reach.append((cols, q, p))
        for cols, x, power in reach:
            out.append(float(tr._log_terms(np.array([x]),
                                           np.array(cols)[:, None], [1])[0])
                       - (power - 1.0) * math.log(x) - offset)
    return out


@pytest.mark.parametrize("A, B, gamma", [
    (700.0, 1e-3, 2.0), (5.0, 2.0, 3.0), (20.0, 0.5, 1.2), (10.0, 1.0, 1.0),
    (50.0, 0.02, 0.5), (10.0, 0.3, 0.3)])
@pytest.mark.parametrize("y", [0.3, 0.97, 1.02, 1.6, 6.0, 45.0])
def test_engine_coordinates_agree_with_log_integrand(A, B, gamma, y):
    # q right and left of y = 1 and d = 1 - y below it, in the kernel
    # forms -A/y + A and -A/y, stripped of their Jacobians and offsets,
    # must give the exponent h(y) of the same point
    shape = PacketShape.from_gamma(gamma, B)
    h = log_integrand(y, A, shape)
    exponents = _coordinate_exponents(A, shape, y)
    assert len(exponents) == (4 if 0.5 < y < 1.0 else 2)
    assert exponents == pytest.approx([h] * len(exponents), rel=1e-12)


# --- quadrature -----------------------------------------------------------

QUAD_ORACLE = [
    # (A, B, gamma, ln_T)
    (700.0, 1e-5, 1.0, -668.7598852191197),
    (700.0, 1e-4, 1.0, -485.0923812451879),
    (700.0, 1e-3, 1.0, -306.6745892918953),
    (700.0, 1e-2, 1.0, -182.66911835829063),
    (700.0, 1e-3, 2.0, -579.6127775916156),
    (700.0, 1.0, 2.0, -110.2186738223023),
    (700.0, 10.0, 3.0, -67.18666395387955),
    (100.0, 1e-4, 4.0, -99.54412726067625),
    (50.0, 0.02, 0.5, -23.43726329861214),
    (20.0, 0.5, 1.2, -10.066669841612683),
    (10.0, 0.3, 0.3, -6.851139283706555),
    (5.0, 2.0, 3.0, -2.9489005249786224),
]


@pytest.mark.parametrize("A, B, gamma, expected", QUAD_ORACLE)
def test_ln_T_quadrature_oracle_grid(A, B, gamma, expected):
    res = ln_T_quadrature(BarrierQuery(A, B, gamma))
    assert res.ln_T == pytest.approx(expected, rel=1e-9, abs=1e-9)
    assert res.method_used == "quadrature"
    assert res.quad_error_ln is not None and res.quad_error_ln < 1e-6
    assert res.planewave_ok == planewave_validity(A, B)[1]
    assert res.G == pytest.approx(G_param(A, B, gamma), rel=1e-15)


def test_ln_T_monotone_decreasing_in_A():
    vals = [ln_T_quadrature(BarrierQuery(A, 1e-3, 2.0)).ln_T
            for A in (10.0, 50.0, 200.0, 700.0)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


@pytest.mark.parametrize("A, B, gamma", [
    (700.0, 1e-3, 2.0), (700.0, 1e-5, 1.0), (100.0, 0.01, 3.0)])
def test_packet_average_bounded_by_construction(A, B, gamma):
    # half the density sits at y >= 1 where D(y) >= e^-A, so
    # e^-A / 2 <= T <= 1 rigorously
    r = ln_T_quadrature(BarrierQuery(A, B, gamma))
    assert -A + math.log(0.49) <= r.ln_T <= 0.0


@pytest.mark.parametrize("A", [10.0, 100.0])
def test_delta_packet_limit(A):
    res = ln_T_quadrature(BarrierQuery(A, 1e-8, 2.0))
    assert abs(res.ln_T + A) <= 1e-2


def test_tiny_B_is_integrated():
    # no cutoff in B makes every packet a delta: below B = 1e-14 the
    # engine still integrates, where ln T = -A was off by 4.9e-12 here and
    # by 8.1e4 at (A=1e5, B=1e-20, gamma=0.3) (see QUAD_MP)
    res = ln_T_quadrature(BarrierQuery(100.0, 1e-15, 2.0))
    assert abs(res.ln_T - -99.9999999999951) <= res.quad_error_ln < 1e-9
    assert res.ln_T > -100.0
    assert res.planewave_ok is True
    assert res.method_used == "quadrature"


def test_quadrature_failure_carries_partial_estimate(monkeypatch):
    def unconverged(rows):
        return np.array([-123.0]), np.array([3.4e-4]), np.array([False])

    monkeypatch.setattr(tr, "_de_quadrature", unconverged)
    with pytest.raises(ConvergenceError) as exc_info:
        tr.ln_T_quadrature(BarrierQuery(50.0, 0.1, 2.0))
    assert exc_info.value.quad_error_ln == pytest.approx(3.4e-4)
    assert exc_info.value.ln_T is not None and exc_info.value.ln_T <= 0.0


def test_quadrature_above_zero_is_a_failure(monkeypatch):
    # ln T > 0 beyond its error is no probability: a ConvergenceError that
    # carries the value, not a result clamped to 0
    query = BarrierQuery(5.0, 0.01, 1.5)
    lift = 1e-6 - ln_T_quadrature(query).ln_T
    real = tr._de_quadrature

    def lifted(rows):
        ln_I, err, ok = real(rows)
        return ln_I + lift, err, ok

    monkeypatch.setattr(tr, "_de_quadrature", lifted)
    with pytest.raises(ConvergenceError) as exc_info:
        ln_T_quadrature(query)
    assert exc_info.value.ln_T == pytest.approx(1e-6, abs=1e-12)
    assert exc_info.value.quad_error_ln < 1e-9


def test_jensen_point_lies_below_minus_A():
    # e^(-A/y) is concave for y > A/2, where all but a negligible part of
    # this packet lies, so ln T < -A; the GK15 engine returned -0.2999999953
    res = ln_T_quadrature(BarrierQuery(0.3, 1e-12, 0.8))
    assert abs(res.ln_T - -0.300000000000255) <= min(res.quad_error_ln, 1e-9)
    assert res.ln_T < -0.3


# (A, B, gamma, ln_T, quad_error_ln) of the per-panel heap quadrature and
# of the Gauss-Kronrod engine that followed it at rel_target 1e-7, with
# errors up to 8e-8, kept as the record of what they returned.  The rows
# covered every panel coordinate of that engine and its delta-packet
# shortcut (B < 1e-14, ln T = -A).  The double-exponential engine is
# pinned to mp_ln_T at each row (QUAD_PINNED_MP) within its own
# quad_error_ln, and moves no old value by more than the old target.
QUAD_PINNED = [
    # a spread over gamma, A and B
    (0.3, 1e-12, 0.3,
     -0.3000000000002423, 6.898218368498826e-08),
    (5.0, 1e-07, 0.3,
     -4.999999250007157, 6.83651072437472e-08),
    (70.0, 0.01, 0.3,
     -22.130460900343213, 2.6413383171134833e-10),
    (700.0, 1000.0, 0.3,
     -8.296892237585974, 9.793574396524007e-09),
    (5.0, 1e-12, 0.5,
     -4.999999999992511, 6.492174513276972e-08),
    (70.0, 1e-07, 0.5,
     -69.99976181727469, 3.0383245408996593e-09),
    (700.0, 0.01, 0.5,
     -73.60232228297998, 4.2391582176563983e-10),
    (10000.0, 1000.0, 0.5,
     -24.439417858537844, 2.188590891728624e-08),
    (70.0, 1e-12, 0.8,
     -69.99999999293142, 8.05220084333739e-08),
    (700.0, 1e-07, 0.8,
     -699.9750057360446, 9.18558689339586e-08),
    (10000.0, 0.01, 0.8,
     -463.06925168107745, 4.325521285512766e-08),
    (0.3, 1000.0, 0.8,
     -0.7052438647601567, 7.336334079954179e-08),
    (700.0, 1e-12, 1.0,
     -699.9999997557001, 3.5839721107603415e-08),
    (10000.0, 1e-07, 1.0,
     -8898.386908282822, 2.7052959210750523e-08),
    (0.3, 0.01, 1.0,
     -0.30267230167628556, 4.3207959607019457e-10),
    (5.0, 1000.0, 1.0,
     -1.118410230364964, 5.110623478156069e-08),
    (10000.0, 1e-12, 1.5,
     -9999.999950009684, 3.1701192900282254e-10),
    (0.3, 1e-07, 1.5,
     -0.30000002549982163, 5.890218360099569e-10),
    (5.0, 0.01, 1.5,
     -4.929033684261542, 1.1070276771587659e-10),
    (70.0, 1000.0, 1.5,
     -3.1264449525940545, 1.2090037458866628e-10),
    (0.3, 1e-12, 2.0,
     -0.3000000000002583, 3.4252932956447356e-11),
    (5.0, 1e-07, 2.0,
     -4.999999250000403, 3.424351609579252e-11),
    (70.0, 0.01, 2.0,
     -58.15722524637299, 4.713578222390776e-09),
    (700.0, 1000.0, 2.0,
     -12.289307161331788, 1.0254983417331656e-09),
    (5.0, 1e-12, 4.0,
     -4.999999999992504, 4.815528433845033e-12),
    (70.0, 1e-07, 4.0,
     -69.99976201002153, 3.909362831248411e-12),
    (700.0, 0.01, 4.0,
     -530.4000182529671, 1.3990831015525196e-08),
    (10000.0, 1000.0, 4.0,
     -108.0853980705111, 4.3906509372578714e-09),
    (70.0, 1e-12, 10.0,
     -69.99999999762, 1.5247775515620301e-12),
    (700.0, 1e-07, 10.0,
     -699.9756821257483, 1.026066425746158e-12),
    (10000.0, 0.01, 10.0,
     -7877.883235416047, 1.4153882222033408e-08),
    (0.3, 1000.0, 10.0,
     -0.7060330297867337, 3.554379944618202e-08),
    # ln T near -7000, where 4 ulp exceed the 1e-12 floor
    (10000.0, 2.424462017082331e-12, 0.5,
     -7037.743634144159, 6.772509459394811e-08),
    (10000.0, 1.7012542798525893e-08, 0.8,
     -7320.2908316784615, 3.741678493254848e-08),
    # 6 and 7 refinement rounds, the most over the benchmark's 3600 points
    (0.3, 170.12542798525928, 0.8,
     -0.696428267256398, 7.029125365901291e-08),
    (0.11315520413101747, 733.1297463847716, 0.16274496763917376,
     -0.32650351518230547, 4.940887060225204e-08),
    (0.1080997374049099, 211.71257382213278, 0.27548866729559013,
     -0.4267174739417361, 2.5178646352346505e-08),
    (0.19320325234797608, 9431.636817348428, 0.1234885739036991,
     -0.40075343844883626, 4.5433715762002314e-08),
    (0.12892498192197635, 6.74706836167088, 0.9833538600976859,
     -0.47859758770529315, 7.875326640686505e-08),
    # the largest moves of ln_T (1 ulp) and of quad_error_ln (8.4e-4 rel)
    (10000.0, 3.455107294592218e-11, 0.8,
     -9999.998270013086, 8.449195620954905e-08),
    (1.7414092782177555, 0.00019435866581828367, 5.9331779075915065,
     -1.7414529985729255, 6.920666972429961e-14),
    # below B_DELTA_CUTOFF: ln T = -A exactly, without quadrature
    (100.0, 1e-15, 2.0, -100.0, 0.0),
    (50.0, 5e-15, 0.5, -50.0, 0.0),
]


# mp_ln_T of tests/brute_oracle.py at each (A, B, gamma) of QUAD_PINNED
QUAD_PINNED_MP = {(A, B, gamma): ln_T for A, B, gamma, ln_T in [
    (0.3, 1e-12, 0.3, -0.300000000000255),
    (5.0, 1e-07, 0.3, -4.999999250007167),
    (70.0, 0.01, 0.3, -22.130460900343213),
    (700.0, 1000.0, 0.3, -8.296892237587912),
    (5.0, 1e-12, 0.5, -4.9999999999925),
    (70.0, 1e-07, 0.5, -69.99976181727469),
    (700.0, 0.01, 0.5, -73.60232228297998),
    (10000.0, 1000.0, 0.5, -24.43941785853784),
    (70.0, 1e-12, 0.8, -69.99999999762),
    (700.0, 1e-07, 0.8, -699.9750057406175),
    (10000.0, 0.01, 0.8, -463.06925168107756),
    (0.3, 1000.0, 0.8, -0.705243871791145),
    (700.0, 1e-12, 1.0, -699.9999997557),
    (10000.0, 1e-07, 1.0, -8898.38690828282),
    (0.3, 0.01, 1.0, -0.30267230167633974),
    (5.0, 1000.0, 1.0, -1.1184102303649626),
    (10000.0, 1e-12, 1.5, -9999.999950009684),
    (0.3, 1e-07, 1.5, -0.30000002550000704),
    (5.0, 0.01, 1.5, -4.929033684261717),
    (70.0, 1000.0, 1.5, -3.126444952594052),
    (0.3, 1e-12, 2.0, -0.300000000000255),
    (5.0, 1e-07, 2.0, -4.9999992500004),
    (70.0, 0.01, 2.0, -58.15722524637299),
    (700.0, 1000.0, 2.0, -12.289307161331786),
    (5.0, 1e-12, 4.0, -4.9999999999925),
    (70.0, 1e-07, 4.0, -69.99976201002153),
    (700.0, 0.01, 4.0, -530.4000182529672),
    (10000.0, 1000.0, 4.0, -108.0853980705111),
    (70.0, 1e-12, 10.0, -69.99999999762),
    (700.0, 1e-07, 10.0, -699.9756821257482),
    (10000.0, 0.01, 10.0, -7877.883235416048),
    (0.3, 1000.0, 10.0, -0.70603302989407),
    (10000.0, 2.424462017082331e-12, 0.5, -7037.743634144161),
    (10000.0, 1.7012542798525893e-08, 0.8, -7320.2908316784615),
    (0.3, 170.12542798525928, 0.8, -0.6964282742257213),
    (0.11315520413101747, 733.1297463847716, 0.16274496763917376,
     -0.3265035151849153),
    (0.1080997374049099, 211.71257382213278, 0.27548866729559013,
     -0.42671747397437426),
    (0.19320325234797608, 9431.636817348428, 0.1234885739036991,
     -0.40075343845178296),
    (0.12892498192197635, 6.74706836167088, 0.9833538600976859,
     -0.4785975955101087),
    (10000.0, 3.455107294592218e-11, 0.8, -9999.998270020993),
    (1.7414092782177555, 0.00019435866581828367, 5.9331779075915065,
     -1.7414529985729221),
    (100.0, 1e-15, 2.0, -99.9999999999951),
    (50.0, 5e-15, 0.5, -49.999999999994),
]}


@pytest.mark.parametrize("A, B, gamma, ln_T, err", QUAD_PINNED)
def test_quadrature_pinned_to_heap_engine(A, B, gamma, ln_T, err):
    res = ln_T_quadrature(BarrierQuery(A, B, gamma))
    assert abs(res.ln_T - QUAD_PINNED_MP[A, B, gamma]) <= res.quad_error_ln
    assert abs(res.ln_T - ln_T) <= 1e-7


def _bits(results):
    """Every field of each result, floats as hex; a failure by its
    partial estimate."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in (
                (r.ln_T, r.quad_error_ln) if isinstance(r, ConvergenceError)
                else dataclasses.astuple(r)))
            for r in results]


def _assert_batching_keeps_bits(queries, rng):
    """Each query's bits alone, in one batch, shuffled and split at 45."""
    alone = _bits(evaluate_many([q])[0] for q in queries)
    assert _bits(evaluate_many(queries)) == alone
    order = rng.permutation(len(queries))
    shuffled = _bits(evaluate_many([queries[i] for i in order]))
    assert [shuffled[k] for k in np.argsort(order)] == alone
    split = evaluate_many(queries[:45]) + evaluate_many(queries[45:])
    assert _bits(split) == alone


def test_evaluate_many_bits_do_not_depend_on_batching():
    rng = np.random.default_rng(7)
    n = 75   # three engine blocks
    cols = [np.exp(rng.uniform(math.log(lo), math.log(hi), n))
            for lo, hi in ((0.1, 1e4), (1e-13, 1e3), (0.11, 10.0))]
    queries = [BarrierQuery(A, B, g) for A, B, g in zip(*cols)]
    _assert_batching_keeps_bits(queries, rng)


def test_bessel_bits_do_not_depend_on_batching():
    # gamma = 1 queries on every route, the Bessel ones over both K1
    # branches (z < 0.75 needs B > 1e4 even at A = 10) and three blocks
    rng = np.random.default_rng(8)
    n = 120
    A = np.exp(rng.uniform(math.log(10.0), math.log(1e4), n))
    B = np.exp(rng.uniform(math.log(1e-13), math.log(1e12), n))
    methods = rng.choice(["auto", "bessel_gamma1", "steepest_descent"], n,
                         p=[0.3, 0.55, 0.15])
    queries = [BarrierQuery(a, b, 1.0, str(m))
               for a, b, m in zip(A, B, methods)]
    queries[:2] = [BarrierQuery(10.0, 1e12, 1.0, "bessel_gamma1"),
                   BarrierQuery(10.0, 1e-13, 1.0)]
    routes = [tr.route(q) for q in queries]
    assert routes.count("bessel_gamma1") > 2 * tr._BLOCK
    assert {"quadrature", "steepest_descent"} <= set(routes)
    _assert_batching_keeps_bits(queries, rng)


# (A, B, gamma) steepest-descent edges: G underflows to 0 or overflows,
# gamma < 1 has no saddle, the saddle rounds to y = 1, gamma = 1 with
# G > 1 and G < 1, and ln T > 0
STEEPEST_EDGES = [
    (0.1, 1e-300, 10.0), (1e12, 1e300, 2.0), (1.0, 1e100, 10.0),
    (0.3, 1e-12, 0.8), (3.0, 1.0, 0.3), (1.0, 1e-300, 2.0),
    (700.0, 1e-4, 1.0), (700.0, 1e-8, 1.0), (1.0, 5e-324, 0.11),
]


def test_steepest_bits_do_not_depend_on_batching(monkeypatch):
    rng = np.random.default_rng(9)
    n = 110
    cols = [np.exp(rng.uniform(math.log(lo), math.log(hi), n))
            for lo, hi in ((0.1, 1e5), (1e-13, 1e4), (0.11, 10.0))]
    cols[2][::7] = 1.0
    points = STEEPEST_EDGES + list(zip(*cols))
    methods = ["steepest_descent"] * (len(points) - 6) + ["auto"] * 6
    queries = [BarrierQuery(A, B, g, m) for (A, B, g), m in zip(points, methods)]
    _assert_batching_keeps_bits(queries, rng)
    # blocks of 32 split the 113 steepest-descent rows four ways
    monkeypatch.setattr(tr, "_STEEPEST_BLOCK", 32)
    _assert_batching_keeps_bits(queries, rng)

    # the block's G, stationary points and plane-wave verdict are the
    # per-query head's, over two blocks of the box
    cols = [np.exp(rng.uniform(math.log(lo), math.log(hi), 2000))
            for lo, hi in ((0.1, 1e5), (1e-13, 1e4), (0.11, 10.0))]
    box = [BarrierQuery(A, B, g, "steepest_descent") for A, B, g in zip(*cols)]
    for q, res in zip(box, evaluate_many(box)):
        shape = PacketShape.from_gamma(q.gamma, q.B)
        head = tr._head(res.method_used, q.gamma, *tr._saddle(q.A, shape))
        assert _bits([res]) == _bits([dataclasses.replace(res, **head)])

    # the edges are really reached
    edges = evaluate_many(queries[:len(STEEPEST_EDGES)])
    assert edges[0].G == 0.0 and edges[0].y_star_approx is None
    assert edges[1].G is None and edges[2].G is None
    assert edges[3].y_star_numeric is None and edges[4].y_star_numeric is None
    assert 0.0 < edges[5].G and edges[5].y_star_numeric is None
    assert edges[6].y_star_numeric == math.sqrt(edges[6].G)
    assert edges[7].G < 1.0 and edges[7].y_star_numeric is None
    positive = [edges[i] for i in (0, 2, 5, 8)]
    assert all(r.ln_T > 0.0 and r.low_confidence for r in positive)


# (A, B, gamma, mp_ln_T) checked in tier-1: the seven seeding branches of
# the Gauss-Kronrod engine, the two points where its error exceeded 1e-9
# or its own estimate, and a point of every piece of the double-exponential
# engine and each extreme of the box, with tests/brute_oracle.py's mp_ln_T
QUAD_MP = [
    (50.0, 0.02, 0.5, -23.437263298612137),      # gamma < 1 with a saddle
    (0.3, 1e-12, 0.8, -0.300000000000255),       # no saddle; Jensen point
    (0.3, 0.01, 1.0, -0.30267230167633974),      # gamma = 1 with G < 1
    (1e5, 1e-6, 1.5, -73503.71870653244),        # a saddle far from 1/A
    (1e4, 1e3, 4.0, -108.0853980705111),         # far saddle, kernel -A/y
    (0.3, 1e-12, 2.0, -0.300000000000255),       # the GK15 seed's u = 64
    (100.0, 1e-15, 2.0, -99.9999999999951),      # below the old shortcut
    (0.16901537837408775, 432.746400424602, 9.214772841377194,
     -0.6925033311886041),                       # GK15 error 2x its estimate
    (0.468176770426065, 1.124951338173494e-12, 0.5334373115071721,
     -0.4681767704264684),                       # near-delta, gamma ~ 0.5
    (1e5, 1e-13, 10.0, -99999.9995000565),       # the density wall
    (70.0, 1e-12, 10.0, -69.99999999762),        # wall without a saddle
    (0.3, 1e3, 0.8, -0.705243871791145),         # tanh-sinh left to y = 1/2
    (1e5, 1e-20, 0.3, -19110.030727503636),      # ln T = -A was off by 8e4
    (0.1, 1e4, 0.11, -0.27851482749127193),      # smallest gamma, widest B
    (0.11315520413101747, 733.1297463847716, 0.16274496763917376,
     -0.3265035151849153),                       # most GK15 rounds
    (88858.38570669427, 0.00046892787997432865, 8.476938968158187,
     -82702.3547000643),                         # largest error, 1 ulp
    (1e5, 1e4, 0.5, -37.26319321295842),         # saddle at y* ~ 7e3
    (5.0, 2.0, 3.0, -2.9489005249786193),
    (0.3, 1e4, 10.0, -0.6992242058560821),       # flat top, wider than 1
    (1e4, 1e-13, 0.11, -160.52912927774904),
]


@pytest.mark.parametrize("A, B, gamma, expected", QUAD_MP)
def test_quadrature_error_bounds_the_oracle(A, B, gamma, expected):
    res = ln_T_quadrature(BarrierQuery(A, B, gamma))
    assert abs(res.ln_T - expected) <= res.quad_error_ln
    assert res.quad_error_ln <= 1e-9 * max(1.0, abs(expected))


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(lnA=st.floats(math.log(0.1), math.log(1e5)),
       lnB=st.floats(math.log(1e-13), math.log(1e4)),
       gamma=st.floats(0.1, 10.0, exclude_min=True))
def test_quadrature_error_bounds_the_oracle_over_the_box(lnA, lnB, gamma):
    from brute_oracle import mp_ln_T

    A, B = math.exp(lnA), math.exp(lnB)
    res = ln_T_quadrature(BarrierQuery(A, B, gamma))
    assert abs(res.ln_T - mp_ln_T(A, B, gamma)) <= res.quad_error_ln


def test_failed_query_leaves_its_block_unchanged(monkeypatch):
    rng = np.random.default_rng(11)
    queries = [BarrierQuery(A, B, g) for A, B, g in zip(
        np.exp(rng.uniform(math.log(0.1), math.log(1e4), 31)),
        np.exp(rng.uniform(math.log(1e-12), math.log(1e3), 31)),
        rng.uniform(0.2, 6.0, 31))]
    doomed = BarrierQuery(7.77, 1e-3, 2.0, method="quadrature")
    real = tr._log_terms

    def jitter(x, c, count):
        # the doomed query's terms (its kernel's a is +-A) jitter with x,
        # so its levels never agree and it fails after the last one
        doomed_a = np.repeat(np.abs(c[0]) == doomed.A, count)
        return real(x, c, count) + np.where(doomed_a, 1e-3 * np.sin(1e4 * x),
                                            0.0)

    monkeypatch.setattr(tr, "_log_terms", jitter)
    without = evaluate_many(queries)
    with_doomed = evaluate_many(queries[:10] + [doomed] + queries[10:])
    failure = with_doomed.pop(10)
    assert isinstance(failure, ConvergenceError)
    assert 1e-9 < failure.quad_error_ln < 1.0
    assert math.isfinite(failure.ln_T)
    assert _bits(with_doomed) == _bits(without)


def test_result_log10_and_magnitude():
    r = ln_T_quadrature(BarrierQuery(10.0, 1e-6, 2.0))
    assert r.log10_T == pytest.approx(r.ln_T / math.log(10.0), rel=1e-15)
    assert r.magnitude.ln_value == r.ln_T


# --- steepest descent -------------------------------------------------------

STEEPEST_ORACLE = [
    # (A, B, gamma, ln_T*, low_confidence)
    (700.0, 1.0, 2.0, -109.9262935734866, False),
    (700.0, 10.0, 3.0, -67.07940069748392, False),
    (700.0, 1e-4, 1.0, -485.0929767016556, True),
    (100.0, 0.1, 1.5, -44.87784177996757, True),
    (50.0, 0.02, 0.5, -23.56765388807719, False),
]


@pytest.mark.parametrize("A, B, gamma, expected, low", STEEPEST_ORACLE)
def test_ln_T_steepest_frozen(A, B, gamma, expected, low):
    res = ln_T_steepest(BarrierQuery(A, B, gamma))
    assert res.ln_T == pytest.approx(expected, rel=1e-10)
    assert res.method_used == "steepest_descent"
    assert res.low_confidence is low


def test_steepest_low_confidence_tracks_G():
    # G = 70 -> G^(1/3) = 4.12: below the trust threshold
    assert ln_T_steepest(BarrierQuery(700.0, 0.1, 2.0)).low_confidence is True
    # G = 700 -> G^(1/3) = 8.88: trusted
    assert ln_T_steepest(BarrierQuery(700.0, 1.0, 2.0)).low_confidence is False


def test_steepest_to_quadrature_ratio_gamma2():
    lq = ln_T_quadrature(BarrierQuery(700.0, 1.0, 2.0)).ln_T
    ls = ln_T_steepest(BarrierQuery(700.0, 1.0, 2.0)).ln_T
    assert math.exp(ls - lq) == pytest.approx(1.3396123067980195, rel=1e-6)


def test_steepest_matches_exact_gamma1_form_asymptotically():
    # for gamma = 1 the Laplace value reproduces the large-argument K1 form
    r = ln_T_bessel_gamma1(700.0, 1e-4)
    s = ln_T_steepest(BarrierQuery(700.0, 1e-4, 1.0))
    assert s.ln_T == pytest.approx(r.ln_T_asymptotic, abs=1e-9)


# --- gamma = 1 closed form ---------------------------------------------------

def test_bessel_gamma1_frozen_value():
    r = ln_T_bessel_gamma1(100.0, 0.01)
    assert r.ln_T == pytest.approx(-59.37217312237709, rel=1e-12)
    assert r.ln_T_asymptotic == pytest.approx(-59.377126258316636, rel=1e-12)
    assert r.ln_T > r.ln_T_asymptotic      # K1 exceeds its asymptotic form
    assert r.method_used == "bessel_gamma1"
    assert r.y_star_numeric == pytest.approx(math.sqrt(r.G), rel=1e-15)


@pytest.mark.parametrize("B", [1e-3, 1e-2])
def test_bessel_gamma1_matches_quadrature_in_regime(B):
    lb = ln_T_bessel_gamma1(700.0, B).ln_T
    lq = ln_T_quadrature(BarrierQuery(700.0, B, 1.0)).ln_T
    assert abs(lb - lq) <= 1e-3 * abs(lq)


def test_bessel_gamma1_regime_and_domain():
    with pytest.raises(RegimeError):
        ln_T_bessel_gamma1(5.0, 0.01)      # A < 10: replacement unjustified
    with pytest.raises(DomainError):
        ln_T_bessel_gamma1(0.0, 0.01)
    with pytest.raises(DomainError):
        ln_T_bessel_gamma1(100.0, -1.0)


def test_bessel_gamma1_suppresses_subunit_stationary_point():
    r = ln_T_bessel_gamma1(700.0, 1e-8)    # G < 1: peak sits at the y=1 cusp
    assert r.G < 1.0
    assert r.y_star_numeric is None
    assert r.y_star_approx == pytest.approx(math.sqrt(r.G), rel=1e-15)


@pytest.mark.parametrize("method", ["quadrature", "steepest_descent"])
@pytest.mark.parametrize("A, B, gamma", [
    (700.0, 1e-8, 1.0), (700.0, 0.1, 2.0), (10.0, 0.3, 0.3), (20.0, 0.5, 1.2)])
def test_published_stationary_points_exceed_one(method, A, B, gamma):
    res = evaluate(BarrierQuery(A, B, gamma, method=method))
    if res.y_star_numeric is not None:
        assert res.y_star_numeric > 1.0


# --- tabulated densities --------------------------------------------------

def test_from_table_three_point_wedge():
    # trapezoid weights only sample the apex, so T = e^-10 almost exactly
    w = 1e-4
    t = DensityTable(y=np.array([1.0 - w, 1.0, 1.0 + w]),
                     density=np.array([0.0, 1.0 / w, 0.0]))
    res = ln_T_from_table(t, 10.0)
    assert res.ln_T == pytest.approx(-10.0, abs=1e-10)
    assert res.method_used == "table_trapezoid"
    assert res.G is None


def test_from_table_truncated_support_bias():
    # a [0.5, 1.5] window clips the upper tail that carries real weight at
    # A = 50, so the table answer differs from full quadrature by ~9e-3
    shape = PacketShape.from_gamma(2.0, 0.01)
    y = np.linspace(0.5, 1.5, 10001)
    t = DensityTable(y=y, density=np.exp(log_density(y, shape)))
    res = ln_T_from_table(t, 50.0)
    assert res.ln_T == pytest.approx(-43.15941059391343, rel=1e-10)
    lq = ln_T_quadrature(BarrierQuery(50.0, 0.01, 2.0)).ln_T
    assert abs(res.ln_T - lq) < 1e-2


def test_from_table_wide_support_matches_quadrature():
    shape = PacketShape.from_gamma(2.0, 0.01)
    y = np.linspace(0.5, 2.0, 10001)
    t = DensityTable(y=y, density=np.exp(log_density(y, shape)))
    res = ln_T_from_table(t, 50.0)
    lq = ln_T_quadrature(BarrierQuery(50.0, 0.01, 2.0)).ln_T
    assert res.ln_T == pytest.approx(lq, abs=1e-6)


def test_from_table_unnormalized_mass_passes_through():
    # tables are averaged as-is; mass 0.5 at negligible A gives T = 0.5
    y = np.linspace(0.9, 1.1, 201)
    t = DensityTable(y=y, density=np.full_like(y, 2.5))
    res = ln_T_from_table(t, 1e-9)
    assert res.ln_T == pytest.approx(math.log(0.5), abs=1e-6)


def test_from_table_all_zero_density():
    # ln T would be -inf, which no JSON or CSV consumer can read; mass at
    # y = 0 alone counts as none, since exp(-A/y) vanishes there
    for y, d in (([0.5, 1.0, 1.5], [0.0, 0.0, 0.0]), ([0.0, 1.0], [1.0, 0.0])):
        t = DensityTable(y=np.array(y), density=np.array(d))
        with pytest.raises(TableFormatError, match="no density at y > 0"):
            ln_T_from_table(t, 5.0)


def test_from_table_domain():
    t = DensityTable(y=np.array([0.5, 1.5]), density=np.array([0.5, 0.5]))
    for bad_A in (0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            ln_T_from_table(t, bad_A)


# --- dispatch ----------------------------------------------------------

def test_auto_dispatch_boundaries():
    # closed form only where its |y-1| -> y-1 replacement is safe
    assert evaluate(BarrierQuery(700.0, 1e-3, 1.0)).method_used == "bessel_gamma1"
    assert evaluate(BarrierQuery(700.0, 1e-8, 1.0)).method_used == "quadrature"
    assert evaluate(BarrierQuery(5.0, 1.0, 1.0)).method_used == "quadrature"
    assert evaluate(BarrierQuery(700.0, 1e-3, 2.0)).method_used == "quadrature"
    # A^2 B = 8 with A >= 10 is the closed-form edge
    assert evaluate(BarrierQuery(10.0, 0.08, 1.0)).method_used == "bessel_gamma1"
    assert evaluate(BarrierQuery(10.0, 0.079, 1.0)).method_used == "quadrature"


def test_explicit_method_dispatch():
    assert evaluate(BarrierQuery(50.0, 0.1, 2.0, method="steepest_descent")
                    ).method_used == "steepest_descent"
    assert evaluate(BarrierQuery(50.0, 0.1, 1.0, method="bessel_gamma1")
                    ).method_used == "bessel_gamma1"
    assert evaluate(BarrierQuery(50.0, 0.1, 2.0, method="quadrature")
                    ).method_used == "quadrature"


def test_barrier_query_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            BarrierQuery(bad, 1.0, 2.0)
        with pytest.raises(DomainError):
            BarrierQuery(1.0, bad, 2.0)
    with pytest.raises(RangeError):
        BarrierQuery(1.0, 1.0, 0.05)
    with pytest.raises(RangeError):
        BarrierQuery(1.0, 1.0, 11.0)
    with pytest.raises(DomainError):
        BarrierQuery(1.0, 1.0, 2.0, method="simpson")
    with pytest.raises(DomainError):
        BarrierQuery(1.0, 1.0, 2.0, method="bessel_gamma1")   # needs gamma=1


def test_bessel_query_needs_min_A():
    # the closed form raises RegimeError below A = 10, so the query itself
    # is refused there, as for gamma != 1
    with pytest.raises(DomainError, match="A >= 10"):
        BarrierQuery(5.0, 1e-3, 1.0, method="bessel_gamma1")
    assert BarrierQuery(10.0, 1e-3, 1.0, method="bessel_gamma1").A == 10.0
    assert evaluate_many([BarrierQuery(5.0, 1e-3, 1.0)])[0].method_used \
        == "quadrature"


@pytest.mark.parametrize("method, A, gamma", [
    ("quadrature", 700.0, 2.0), ("quadrature", 50.0, 0.5),
    ("steepest_descent", 700.0, 2.0), ("bessel_gamma1", 700.0, 1.0)])
def test_each_route_derives_shape_constants_once(monkeypatch, method, A,
                                                 gamma):
    import coulombpacket.packet as packet_mod
    real = packet_mod.shape_constants
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    # every module that binds the function gets the counter
    for module in (packet_mod, tr):
        monkeypatch.setattr(module, "shape_constants", counted)
    evaluate(BarrierQuery(A, 1e-3, gamma, method=method))
    assert calls == [gamma]
