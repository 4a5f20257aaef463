"""Transmission evaluators against a frozen brute-force oracle grid.

Reference ln T values were produced by two independent oracles (mpmath
tanh-sinh quadrature at 40 significant digits, and a float log-domain
Simpson rule with Richardson extrapolation over 2^17-point panels; see
tests/brute_oracle.py) agreeing with each other to better than 1e-11
before being frozen here.
"""

import contextlib
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
    TableFormatError,
)
from coulombpacket.packet import (
    DensityTable,
    PacketShape,
    log_density,
    shape_constants,
)
from coulombpacket.transmission import (
    BarrierQuery,
    evaluate,
    evaluate_many,
    ln_T_from_table,
    planewave_validity,
    saddle_point_approx,
    saddle_point_numeric,
)


# --- kernel and validity ---------------------------------------------------

def test_planewave_validity_threshold():
    v, ok = planewave_validity(10.0, 1e-6)
    assert v == pytest.approx(0.01, rel=1e-12) and ok
    v, ok = planewave_validity(1.0, 0.010000001)
    assert v > 0.1 and not ok         # strict comparison at the edge
    _, ok = planewave_validity(700.0, 1.0)
    assert not ok


# --- G parameter -------------------------------------------------------------

def G_of(A, B, gamma):
    """G as every result derives it: tr._G with beta of gamma."""
    return tr._G(A, B, gamma, shape_constants(gamma)[0])


def test_G_param_worked_value():
    assert G_of(700.0, 0.1, 2.0) == 70.0
    assert G_of(700.0, 1e-4, 1.0) == pytest.approx(
        7.0 / math.sqrt(2.0), rel=1e-13)
    res = evaluate(BarrierQuery(700.0, 0.1, 2.0, "steepest_descent"))
    assert res.G == 70.0


def test_G_param_overflow_gives_inf():
    # B^(gamma/2) = 1e500 overflows a Python float power, which raises
    # rather than returning inf; G itself is out of range too, and a result
    # publishes it as None (test_overflowing_G_is_reported_as_none)
    assert G_of(1.0, 1e100, 10.0) == math.inf
    assert G_of(1e12, 1e300, 2.0) == math.inf


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
    G = G_of(1e300, 1e-250, 4.0)
    beta4 = shape_constants(4.0)[0]
    expected = math.exp(math.log(1e300) + 2.0 * math.log(1e-250)
                        - math.log(4.0 * beta4))
    assert G == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("A, B, gamma", [
    (0.0, 1.0, 2.0), (1.0, -1.0, 2.0), (1.0, 1.0, 0.0),
    (math.nan, 1.0, 2.0), (1.0, math.inf, 2.0),
])
def test_G_param_domain(A, B, gamma):
    # G is formed only for a query, which refuses these
    with pytest.raises(DomainError):
        BarrierQuery(A, B, gamma)


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


def _saddle_samples(count, gamma_lo, gamma_hi, seed):
    """Seeded random (G, gamma), drawn until count of them have a
    stationary point by bisect_saddle, with those drawn between that have
    none."""
    from brute_oracle import bisect_saddle

    rng = np.random.default_rng(seed)
    out, found = [], 0
    while found < count:
        lnG, gamma = rng.uniform(-8.0, 30.0), rng.uniform(gamma_lo, gamma_hi)
        G = math.exp(lnG)
        y = bisect_saddle(G, gamma, y_max=1e13)
        found += y is not None
        out.append((G, gamma, y))
    return out


def test_saddle_newton_matches_bisection_oracle():
    # y* against the independent bisection, to 1e-13 relative, and a raise
    # exactly where it finds no root: 2000 seeded (G, gamma) with a saddle
    # and those drawn between them without one (below gamma = 1, or y*
    # rounds to 1); the exact root t = 0 of ln G = 2 ln 2; gamma = 1 +- 1e-6,
    # where Newton starts far from the root or the slope is nearly flat;
    # and ln G = +-700, saddles out to y* ~ 1e276.  The oracle scans y - 1
    # over (1e-12, y_max); no y* here has y* - 1 below that and above 0.
    from brute_oracle import bisect_saddle

    cases = (_saddle_samples(1000, 0.1, 1.0, seed=31)
             + _saddle_samples(1000, 1.0, 10.0, seed=32))
    assert sum(y is not None for _, _, y in cases) == 2000
    edges = [(4.0, g) for g in (0.5, 2.0, 1.0 - 1e-6, 1.0 + 1e-6)]
    edges += [(math.exp(lnG), g)
              for g in (0.1000001, 0.11, 0.5, 0.99, 1.0 - 1e-6, 1.0 + 1e-6,
                        1.01, 2.0, 10.0)
              for lnG in (-700.0, -20.0, -1.0, -1e-6, 1e-6, 1.0, 30.0, 700.0)]
    cases += [(G, g, bisect_saddle(G, g, y_max=1e300)) for G, g in edges]
    for G, gamma, expected in cases:
        if expected is None:
            with pytest.raises(ConvergenceError):
                saddle_point_numeric(G, gamma)
        else:
            assert saddle_point_numeric(G, gamma) == pytest.approx(
                expected, rel=1e-13, abs=0.0), (G, gamma)


def test_unreached_saddle_is_published_as_none(monkeypatch):
    # with 3 Newton steps, a saddle the solve does not settle is published
    # as None, exactly where saddle_point_numeric raises on its own
    monkeypatch.setattr(tr, "_SADDLE_STEPS", 3)
    rng = np.random.default_rng(35)
    queries = [BarrierQuery(A, B, g, "steepest_descent") for A, B, g in zip(
        np.exp(rng.uniform(math.log(1.0), math.log(1e4), 60)),
        np.exp(rng.uniform(math.log(1e-6), math.log(1.0), 60)),
        rng.uniform(0.2, 6.0, 60))]
    block = [r.y_star_numeric for r in evaluate_many(queries)]
    assert block.count(None) > 10      # 42; 4 at the default cap
    alone = []
    for q in queries:
        try:
            alone.append(saddle_point_numeric(G_of(q.A, q.B, q.gamma),
                                              q.gamma))
        except ConvergenceError:
            alone.append(None)
    assert block == alone
    assert any(y is not None for y in block)


def test_saddle_residual_matches_logaddexp_form_bit_for_bit():
    # the residual computes ln(1 + e^t) in math, as np.logaddexp(0, t)
    # does: the bits of every y* depend on it
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
            assert tr._saddle_shifted(t, lnG, gamma)[0].hex() == \
                float(expected).hex(), (t, lnG, gamma)


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

def _coordinate_exponents(A, shape, y):
    """h(y) from each engine coordinate that reaches y, in both kernel
    forms, with the coordinate's Jacobian and kernel offset taken off."""
    out = []
    for far in (False, True):
        (right, _), (left, _), (low, _) = tr._coordinates(
            A, shape.gamma, 0.5 * math.log(shape.B),
            tr._shape_consts(shape.gamma), far)
        offset = 0.0 if far else A
        ln_c, p = right[3], right[4]
        reach = [(low, 1.0 - y, 1.0)] if y < 1.0 else []
        if y > 0.5:
            cols = right if y > 1.0 else left
            q = math.exp((math.log(abs(y - 1.0)) - ln_c) / p)
            reach.append((cols, q, p))
        for cols, x, power in reach:
            out.append(float(tr._log_terms(np.array([x]),
                                           np.array(cols)[:, None])[0])
                       - (power - 1.0) * math.log(x) - offset)
    return out


@pytest.mark.parametrize("A, B, gamma", [
    (700.0, 1e-3, 2.0), (5.0, 2.0, 3.0), (20.0, 0.5, 1.2), (10.0, 1.0, 1.0),
    (50.0, 0.02, 0.5), (10.0, 0.3, 0.3)])
@pytest.mark.parametrize("y", [0.3, 0.97, 1.02, 1.6, 6.0, 45.0])
def test_engine_coordinates_agree_with_log_integrand(A, B, gamma, y):
    # q right and left of y = 1 and d = 1 - y below it, in the kernel
    # forms -A/y + A and -A/y, stripped of their Jacobians and offsets,
    # must give the exponent h(y) of the same point, as the independent
    # oracle writes it
    from brute_oracle import _h_float

    shape = PacketShape.from_gamma(gamma, B)
    h = float(_h_float(np.array([y]), A, B, shape.beta, gamma)[0])
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
    res = evaluate(BarrierQuery(A, B, gamma, "quadrature"))
    assert res.ln_T == pytest.approx(expected, rel=1e-9, abs=1e-9)
    assert res.method_used == "quadrature"
    assert res.quad_error_ln is not None and res.quad_error_ln < 1e-6
    assert res.planewave_ok == planewave_validity(A, B)[1]
    assert res.G == pytest.approx(G_of(A, B, gamma), rel=1e-15)


def test_ln_T_monotone_decreasing_in_A():
    vals = [evaluate(BarrierQuery(A, 1e-3, 2.0, "quadrature")).ln_T
            for A in (10.0, 50.0, 200.0, 700.0)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


@pytest.mark.parametrize("A, B, gamma", [
    (700.0, 1e-3, 2.0), (700.0, 1e-5, 1.0), (100.0, 0.01, 3.0)])
def test_packet_average_bounded_by_construction(A, B, gamma):
    # half the density sits at y >= 1 where D(y) >= e^-A, so
    # e^-A / 2 <= T <= 1 rigorously
    r = evaluate(BarrierQuery(A, B, gamma, "quadrature"))
    assert -A + math.log(0.49) <= r.ln_T <= 0.0


@pytest.mark.parametrize("A", [10.0, 100.0])
def test_delta_packet_limit(A):
    res = evaluate(BarrierQuery(A, 1e-8, 2.0, "quadrature"))
    assert abs(res.ln_T + A) <= 1e-2


def test_tiny_B_is_integrated():
    # no cutoff in B makes every packet a delta: below B = 1e-14 the
    # engine still integrates, where ln T = -A was off by 4.9e-12 here and
    # by 8.1e4 at (A=1e5, B=1e-20, gamma=0.3) (see QUAD_MP)
    res = evaluate(BarrierQuery(100.0, 1e-15, 2.0, "quadrature"))
    assert abs(res.ln_T - -99.9999999999951) <= res.quad_error_ln < 1e-9
    assert res.ln_T > -100.0
    assert res.planewave_ok is True
    assert res.method_used == "quadrature"


@pytest.mark.parametrize("A, B, gamma, passes", [
    (700.0, 1e-3, 2.0, 2),      # a QUAD_ORACLE point that stops at level 2
    (20.0, 0.5, 1.2, 2),        # one that stops at level 1
    (1e5, 1e-6, 1.5, 3),        # a QUAD_MP point that needs level 3
])
def test_levels_1_and_2_take_one_pass(monkeypatch, A, B, gamma, passes):
    # the engine evaluates its node terms once for level 0, once for
    # levels 1 and 2 together, and once for each later level
    calls = []
    real = tr._node_terms

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tr, "_node_terms", counting)
    evaluate(BarrierQuery(A, B, gamma, "quadrature"))
    assert len(calls) == passes


# the coarse nodes that level 0 keeps, per piece of two queries: first kept
# node 0, last kept node 72, one isolated node, two kept runs with a gap,
# a live piece that keeps nothing, both ends, and a dead piece (None)
SPAN_KEPT = ([0, 1, 2], [70, 72], [30], [10, 11, 12, 40, 41], [],
             [0, 72], [72], None, [0], [])


def test_level_0_spans_run_from_first_to_last_kept_node(monkeypatch):
    # a piece's span runs over the coarse steps from the node before its
    # first kept node to the one after its last, within the node table;
    # levels 1 and 2 evaluate exactly the midpoints inside it, and nothing
    # for a piece that keeps no node
    width = tr._DE_COARSE.size
    cols = np.zeros((13, len(SPAN_KEPT)))
    cols[11] = [kept is not None for kept in SPAN_KEPT]   # length: live
    cols[12, ::2] = tr._EXP_SINH                           # rule
    calls = []

    def crafted(cols, pieces, count, node):
        calls.append((pieces, count, node))
        if len(calls) == 1:
            # level 0: a kept node's term is the peak, the rest far below
            terms = np.full((pieces.size, width), -100.0)
            for row, i in enumerate(pieces):
                terms[row, SPAN_KEPT[i]] = 0.0
            return terms.ravel()
        return np.full(node.size, -np.inf)

    monkeypatch.setattr(tr, "_node_terms", crafted)
    with np.errstate(divide="ignore", invalid="ignore"):
        tr._de_quadrature(cols, [0.0, 0.0], [0.0, 0.0])
    # the levels 1 and 2 pass
    pieces, count, node = calls[1]
    owner = pieces.repeat(count)
    for i, kept in enumerate(SPAN_KEPT):
        expected = []
        if kept:
            lo = tr._DE_STRIDE * max(kept[0] - 1, 0)
            hi = tr._DE_STRIDE * min(kept[-1] + 1, width - 1)
            expected = [int(cols[12, i]) + j for j in range(lo, hi)
                        if j % 4 == 0 and j % tr._DE_STRIDE]
        assert sorted(node[owner == i].tolist()) == expected, (i, kept)


def test_quadrature_failure_carries_partial_estimate(monkeypatch):
    def unconverged(rows, *scale):
        return np.array([-123.0]), np.array([3.4e-4]), np.array([False])

    monkeypatch.setattr(tr, "_de_quadrature", unconverged)
    with pytest.raises(ConvergenceError) as exc_info:
        tr.evaluate(BarrierQuery(50.0, 0.1, 2.0, "quadrature"))
    assert exc_info.value.quad_error_ln == pytest.approx(3.4e-4)
    assert exc_info.value.ln_T is not None and exc_info.value.ln_T <= 0.0


def test_quadrature_above_zero_is_a_failure(monkeypatch):
    # ln T > 0 beyond its error is no probability: a ConvergenceError that
    # carries the value, not a result clamped to 0
    query = BarrierQuery(5.0, 0.01, 1.5, "quadrature")
    lift = 1e-6 - evaluate(query).ln_T
    real = tr._de_quadrature

    def lifted(rows, *scale):
        ln_I, err, ok = real(rows, *scale)
        return ln_I + lift, err, ok

    monkeypatch.setattr(tr, "_de_quadrature", lifted)
    with pytest.raises(ConvergenceError) as exc_info:
        evaluate(query)
    assert exc_info.value.ln_T == pytest.approx(1e-6, abs=1e-12)
    assert exc_info.value.quad_error_ln < 1e-9


@pytest.mark.parametrize("A, B, gamma", [(1e11, 1e-3, 2.0), (1e9, 1.0, 10.0)])
def test_quadrature_stops_at_its_rounding_floor(A, B, gamma):
    # where ln T is ~1e8, its rounding alone moves it by more than 1e-9
    # between levels; the route stops there and reports the floor, where
    # it used to fail (5.75e-07 at A = 1e11).  mp_ln_T's scan steps over
    # so sharp a peak, so the reference integrates around the saddle
    from brute_oracle import mp_ln_T_saddle

    res = evaluate(BarrierQuery(A, B, gamma, "quadrature"))
    assert 1e-9 < res.quad_error_ln < 1e-14 * abs(res.ln_T)
    assert abs(res.ln_T - mp_ln_T_saddle(A, B, gamma)) <= res.quad_error_ln


@pytest.mark.parametrize("oracle, A, B, gamma, why", [
    pytest.param("mp_ln_T", 1e11, 1e-3, 2.0, "use mp_ln_T_saddle",
                 id="100000000000.0-0.001-2.0"),
    pytest.param("mp_ln_T", 1e9, 1.0, 10.0, "use mp_ln_T_saddle",
                 id="1000000000.0-1.0-10.0"),
    pytest.param("mp_ln_T_saddle", 1e-6, math.exp(-30.0) / 1e-6, 2.0,
                 "saddle lies below the scan", id="saddle-below-scan"),
])
def test_oracle_refuses_a_peak_narrower_than_its_scan(oracle, A, B, gamma,
                                                      why):
    # mp_ln_T's scan keeps a single point of a sharp peak, a window of zero
    # width, where it returned -inf without an error; mp_ln_T_saddle's scan
    # of y - 1 starts at 1e-12, and below it the saddle is not found, where
    # it raised TypeError
    import brute_oracle

    with pytest.raises(ValueError, match=rf"A=.*{why}"):
        getattr(brute_oracle, oracle)(A, B, gamma)


def test_quadrature_estimate_is_never_nan():
    # queries whose terms overflow fail with an infinite estimate, where
    # they used to give nan; where the route succeeds its estimate is finite
    queries = [BarrierQuery(A, B, g, "quadrature") for A in (1e200, 1.7e308)
               for B in (1e-300, 1e-3, 1e300) for g in (0.5, 1.0, 2.0)]
    results = evaluate_many(queries)
    failures = [r for r in results if isinstance(r, ConvergenceError)]
    assert len(failures) > len(queries) // 2
    assert all(r.quad_error_ln == math.inf for r in failures)
    assert all(math.isfinite(r.quad_error_ln) and r.ln_T <= r.quad_error_ln
               for r in results if not isinstance(r, ConvergenceError))


def test_jensen_point_lies_below_minus_A():
    # e^(-A/y) is concave for y > A/2, where all but a negligible part of
    # this packet lies, so ln T < -A; the GK15 engine returned -0.2999999953
    res = evaluate(BarrierQuery(0.3, 1e-12, 0.8, "quadrature"))
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
    res = evaluate(BarrierQuery(A, B, gamma, "quadrature"))
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


def test_bessel_bits_do_not_depend_on_batching(monkeypatch):
    # gamma = 1 queries on every route, the Bessel ones over both K1
    # branches (z < 0.75 needs B > 1e4 even at A = 10) and, in chunks of
    # 32, three blocks
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
    assert routes.count("bessel_gamma1") > 2 * 32
    assert {"quadrature", "steepest_descent"} <= set(routes)
    _assert_batching_keeps_bits(queries, rng)
    monkeypatch.setattr(tr, "CHUNK", 32)
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
    # chunks of 32 split the 119 queries four ways
    monkeypatch.setattr(tr, "CHUNK", 32)
    _assert_batching_keeps_bits(queries, rng)

    # the batch's G, stationary points and plane-wave verdict are those of
    # each query alone, from _G, saddle_point_numeric, saddle_point_approx
    # and planewave_validity, over two chunks of the box
    cols = [np.exp(rng.uniform(math.log(lo), math.log(hi), 2000))
            for lo, hi in ((0.1, 1e5), (1e-13, 1e4), (0.11, 10.0))]
    box = [BarrierQuery(A, B, g, "steepest_descent") for A, B, g in zip(*cols)]
    for q, res in zip(box, evaluate_many(box)):
        G = tr._G(q.A, q.B, q.gamma, shape_constants(q.gamma)[0])
        finite = 0.0 < G < math.inf
        y = None
        if finite:
            with contextlib.suppress(ConvergenceError):
                y = saddle_point_numeric(G, q.gamma)
        alone = dict(G=G if G < math.inf else None,
                     y_star_numeric=y if y and y > 1.0 else None,
                     y_star_approx=(saddle_point_approx(G, q.gamma)
                                    if finite else None),
                     planewave_ok=planewave_validity(q.A, q.B)[1])
        assert _bits([res]) == _bits([dataclasses.replace(res, **alone)])

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
    res = evaluate(BarrierQuery(A, B, gamma, "quadrature"))
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
    res = evaluate(BarrierQuery(A, B, gamma, "quadrature"))
    assert abs(res.ln_T - mp_ln_T(A, B, gamma)) <= res.quad_error_ln


def test_failed_query_leaves_its_block_unchanged(monkeypatch):
    rng = np.random.default_rng(11)
    queries = [BarrierQuery(A, B, g) for A, B, g in zip(
        np.exp(rng.uniform(math.log(0.1), math.log(1e4), 31)),
        np.exp(rng.uniform(math.log(1e-12), math.log(1e3), 31)),
        rng.uniform(0.2, 6.0, 31))]
    doomed = BarrierQuery(7.77, 1e-3, 2.0, method="quadrature")
    real = tr._log_terms

    def jitter(x, c):
        # the doomed query's terms (its kernel's a is +-A) jitter with x,
        # so its levels never agree and it fails after the last one
        doomed_a = np.abs(c[0]) == doomed.A
        return real(x, c) + np.where(doomed_a, 1e-3 * np.sin(1e4 * x), 0.0)

    monkeypatch.setattr(tr, "_log_terms", jitter)
    without = evaluate_many(queries)
    with_doomed = evaluate_many(queries[:10] + [doomed] + queries[10:])
    failure = with_doomed.pop(10)
    assert isinstance(failure, ConvergenceError)
    assert 1e-9 < failure.quad_error_ln < 1.0
    assert math.isfinite(failure.ln_T)
    assert _bits(with_doomed) == _bits(without)


def test_result_log10():
    r = evaluate(BarrierQuery(10.0, 1e-6, 2.0, "quadrature"))
    assert r.log10_T == pytest.approx(r.ln_T / math.log(10.0), rel=1e-15)


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
    res = evaluate(BarrierQuery(A, B, gamma, "steepest_descent"))
    assert res.ln_T == pytest.approx(expected, rel=1e-10)
    assert res.method_used == "steepest_descent"
    assert res.low_confidence is low


def test_steepest_low_confidence_tracks_G():
    def low(B):
        return evaluate(BarrierQuery(700.0, B, 2.0,
                                     "steepest_descent")).low_confidence

    assert low(0.1) is True    # G = 70 -> G^(1/3) = 4.12: below the threshold
    assert low(1.0) is False   # G = 700 -> G^(1/3) = 8.88: trusted


def test_steepest_to_quadrature_ratio_gamma2():
    lq = evaluate(BarrierQuery(700.0, 1.0, 2.0, "quadrature")).ln_T
    ls = evaluate(BarrierQuery(700.0, 1.0, 2.0, "steepest_descent")).ln_T
    assert math.exp(ls - lq) == pytest.approx(1.3396123067980195, rel=1e-6)


def test_steepest_matches_exact_gamma1_form_asymptotically():
    # for gamma = 1 the Laplace value reproduces the large-argument K1 form
    r = evaluate(BarrierQuery(700.0, 1e-4, 1.0, "bessel_gamma1"))
    s = evaluate(BarrierQuery(700.0, 1e-4, 1.0, "steepest_descent"))
    assert s.ln_T == pytest.approx(r.ln_T_asymptotic, abs=1e-9)


# --- gamma = 1 closed form ---------------------------------------------------

def test_bessel_gamma1_frozen_value():
    r = evaluate(BarrierQuery(100.0, 0.01, 1.0, "bessel_gamma1"))
    assert r.ln_T == pytest.approx(-59.37217312237709, rel=1e-12)
    assert r.ln_T_asymptotic == pytest.approx(-59.377126258316636, rel=1e-12)
    assert r.ln_T > r.ln_T_asymptotic      # K1 exceeds its asymptotic form
    assert r.method_used == "bessel_gamma1"
    assert r.y_star_numeric == pytest.approx(math.sqrt(r.G), rel=1e-15)


@pytest.mark.parametrize("B", [1e-3, 1e-2])
def test_bessel_gamma1_matches_quadrature_in_regime(B):
    lb = evaluate(BarrierQuery(700.0, B, 1.0, "bessel_gamma1")).ln_T
    lq = evaluate(BarrierQuery(700.0, B, 1.0, "quadrature")).ln_T
    assert abs(lb - lq) <= 1e-3 * abs(lq)


def test_bessel_above_zero_is_a_failure():
    # at small A^2 B the |y-1| -> y-1 replacement overweights y < 1 by
    # about e^eta; the value, +4.46e6 here, comes back as a failure, where
    # it used to be clamped to ln T = 0
    with pytest.raises(ConvergenceError, match="bessel_gamma1") as exc_info:
        evaluate(BarrierQuery(10.0, 1e-13, 1.0, "bessel_gamma1"))
    assert exc_info.value.ln_T == pytest.approx(4.46e6, rel=1e-3)
    assert exc_info.value.quad_error_ln is None
    ok, failed = evaluate_many([BarrierQuery(10.0, B, 1.0, "bessel_gamma1")
                                for B in (0.01, 1e-13)])
    assert ok.ln_T < 0.0
    assert isinstance(failed, ConvergenceError)
    assert failed.ln_T == exc_info.value.ln_T


def test_bessel_overflow_fails_only_its_row():
    # the K1 argument 2 sqrt(A sqrt(2/B)) is taken from split square roots
    # where 2/B or A sqrt(2/B) overflows: auto at (1e300, 1e-20) gets its
    # value, and (10, 5e-324) fails only as ln T > 0, carrying its value;
    # both match brute_oracle.  Each row keeps the bits it has alone
    from brute_oracle import mp_ln_T_bessel

    good = [BarrierQuery(700.0, 1e-3, 1.0, "bessel_gamma1"),
            BarrierQuery(100.0, 0.01, 1.0, "bessel_gamma1")]
    edge = [BarrierQuery(1e300, 1e-20, 1.0),          # auto picks bessel
            BarrierQuery(10.0, 5e-324, 1.0, "bessel_gamma1")]
    results = evaluate_many([good[0], edge[0], good[1], edge[1]])
    for q, r in zip(good, results[::2]):
        assert r == evaluate(q)
    huge, tiny = results[1::2]
    assert huge == evaluate(edge[0])
    assert huge.method_used == "bessel_gamma1"
    assert huge.ln_T == pytest.approx(mp_ln_T_bessel(1e300, 1e-20), rel=1e-12)
    assert huge.ln_T_asymptotic == pytest.approx(huge.ln_T, rel=1e-12)
    assert isinstance(tiny, ConvergenceError) and "> 0" in str(tiny)
    assert tiny.ln_T == pytest.approx(mp_ln_T_bessel(10.0, 5e-324), rel=1e-12)
    assert tiny.quad_error_ln is None
    with pytest.raises(ConvergenceError) as alone:
        evaluate(edge[1])
    assert alone.value.ln_T == tiny.ln_T


def test_column_routes_match_route():
    # route() and _evaluate_columns both route by _routes; a query alone
    # must go where its row in a column goes, the A^2 B = 8 and A = 10
    # edges included
    rng = np.random.default_rng(12)
    n = 600
    A = np.exp(rng.uniform(math.log(1.0), math.log(1e3), n))
    B = 8.0 / A ** 2 * np.exp(rng.uniform(-0.5, 0.5, n))
    A[:40], B[:40] = 10.0, 0.08
    A[40:80] = np.nextafter(10.0, 0.0)
    gamma = np.where(rng.uniform(size=n) < 0.7, 1.0, rng.uniform(0.2, 3.0, n))
    methods = rng.choice(tr.METHODS, n)
    queries = [BarrierQuery(a, b, g, str(m))
               for a, b, g, m in zip(A, B, gamma, methods)
               if not (m == "bessel_gamma1" and (g != 1.0 or a < 10.0))]
    cols = tr._evaluate_columns(
        *np.array([(q.A, q.B, q.gamma) for q in queries]).T,
        [tr.METHODS.index(q.method) for q in queries])
    assert cols["method_used"].tolist() == [tr.route(q) for q in queries]
    assert {tr.route(q) for q in queries if q.method == "auto"} == {
        "quadrature", "bessel_gamma1"}


def test_bessel_gamma1_regime_and_domain():
    # A < 10 (replacement unjustified): test_bessel_query_needs_min_A
    with pytest.raises(DomainError):
        BarrierQuery(0.0, 0.01, 1.0, "bessel_gamma1")
    with pytest.raises(DomainError):
        BarrierQuery(100.0, -1.0, 1.0, "bessel_gamma1")


def test_bessel_gamma1_suppresses_subunit_stationary_point():
    # G < 1: the peak sits at the y = 1 cusp
    r = evaluate(BarrierQuery(700.0, 2e-6, 1.0, "bessel_gamma1"))
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
    lq = evaluate(BarrierQuery(50.0, 0.01, 2.0, "quadrature")).ln_T
    assert abs(res.ln_T - lq) < 1e-2


def test_from_table_wide_support_matches_quadrature():
    shape = PacketShape.from_gamma(2.0, 0.01)
    y = np.linspace(0.5, 2.0, 10001)
    t = DensityTable(y=y, density=np.exp(log_density(y, shape)))
    res = ln_T_from_table(t, 50.0)
    lq = evaluate(BarrierQuery(50.0, 0.01, 2.0, "quadrature")).ln_T
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
    # the gamma = 1 closed form needs A >= 10, so the query itself is
    # refused below it, as for gamma != 1
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
