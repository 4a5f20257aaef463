"""Packet density: shape constants, moments, tabulated-density parsing."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from coulombpacket.errors import (
    ConvergenceError,
    DomainError,
    RangeError,
    TableFormatError,
)
from coulombpacket.packet import (
    DensityTable,
    PacketShape,
    density_exponent,
    log_density,
    read_density_table,
    shape_constants,
)
from coulombpacket.transmission import central_moment


# --- shape constants -----------------------------------------------------

def test_shape_constants_reference_points():
    b1, _ = shape_constants(1.0)
    b2, ln_n2 = shape_constants(2.0)
    # the reduced Gamma values cancel here, so these are exact, not just close
    assert b1 == math.sqrt(2.0)
    assert b2 == 0.5
    assert math.exp(ln_n2) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                            rel=1e-13)


def test_shape_constants_gamma4_frozen():
    # mpmath oracle at 40 digits: [Gamma(3/4)/Gamma(1/4)]^2 and the matching
    # normalizer
    b4, ln_n4 = shape_constants(4.0)
    assert b4 == pytest.approx(0.11423664526111585, rel=1e-14)
    assert math.exp(ln_n4) == pytest.approx(0.32070097541422293, rel=1e-13)


def test_shape_constants_against_mpmath():
    # 200 grid points plus 40 seeded random ones over (0.1, 10]
    rng = np.random.default_rng(20)
    gammas = np.concatenate((np.linspace(0.1, 10.0, 201)[1:],
                             rng.uniform(0.1, 10.0, 40)))
    worst_beta = worst_log_N = 0.0
    with mp.workdps(40):
        for gamma in gammas:
            g = mp.mpf(float(gamma))
            beta_mp = (mp.gamma(3 / g) / mp.gamma(1 / g)) ** (g / 2)
            log_N_mp = mp.log(g * mp.sqrt(mp.gamma(3 / g))
                              / (2 * mp.gamma(1 / g) ** mp.mpf("1.5")))
            beta, log_N = shape_constants(float(gamma))
            worst_beta = max(worst_beta, abs(float((beta - beta_mp) / beta_mp)))
            worst_log_N = max(worst_log_N, abs(float(log_N - log_N_mp)))
    assert worst_beta <= 1e-14
    assert worst_log_N <= 1e-14


@pytest.mark.parametrize("gamma, ratio", [
    (2.0, 0.5),                        # Gamma(3/2)/Gamma(1/2)
    (1.0, 2.0),                        # Gamma(3)/Gamma(1)
    (2.0 / 3.0, 1.5 * 2.5 * 3.5),      # Gamma(9/2)/Gamma(3/2)
    (0.5, 2.0 * 3.0 * 4.0 * 5.0),      # Gamma(6)/Gamma(2)
    (0.4, 2.5 * 3.5 * 4.5 * 5.5 * 6.5),  # Gamma(15/2)/Gamma(5/2)
])
def test_shape_constants_exact_where_two_over_gamma_is_integer(gamma, ratio):
    # the reduced Gamma values cancel, leaving the rational recurrence ratio
    assert shape_constants(gamma)[0] == ratio ** (gamma / 2.0)


def test_shape_constants_tiny_gamma_uses_log_route():
    # Gamma(300) overflows a double; the log branch must take over
    beta, log_N = shape_constants(0.01)
    assert beta > 0.0 and math.isfinite(beta)
    assert math.isfinite(log_N)


@given(gamma=st.floats(min_value=0.11, max_value=10.0))
def test_shape_constants_finite_positive(gamma):
    beta, log_N = shape_constants(gamma)
    assert beta > 0.0 and math.isfinite(beta)
    assert math.isfinite(log_N)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
def test_shape_constants_domain(gamma):
    with pytest.raises(DomainError):
        shape_constants(gamma)


def test_packet_shape_validation():
    with pytest.raises(RangeError):
        PacketShape.from_gamma(0.05, 1.0)
    with pytest.raises(RangeError):
        PacketShape.from_gamma(0.1, 1.0)     # lower edge itself is excluded
    with pytest.raises(RangeError):
        PacketShape.from_gamma(10.5, 1.0)
    assert PacketShape.from_gamma(10.0, 1.0).gamma == 10.0  # inclusive edge
    for bad_B in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            PacketShape.from_gamma(2.0, bad_B)


# --- density -------------------------------------------------------------

def test_log_density_peak_value_and_symmetry():
    shape = PacketShape.from_gamma(1.7, 0.03)
    # at y = 1 the |y-1|^gamma term vanishes identically
    assert log_density(1.0, shape) == shape.log_N - 0.5 * math.log(shape.B)
    u = np.linspace(1e-6, 5.0, 401)
    np.testing.assert_allclose(log_density(1.0 + u, shape),
                               log_density(1.0 - u, shape),
                               rtol=5e-12, atol=1e-12)
    # for y in (1, 1.5] both y-1 and (2-y)-1 are exact, so the mirror image
    # 2-y must give the bit-identical density
    y = np.linspace(1.0 + 1e-9, 1.5, 101)
    np.testing.assert_array_equal(log_density(y, shape),
                                  log_density(2.0 - y, shape))


def test_log_density_gaussian_closed_form():
    shape = PacketShape.from_gamma(2.0, 0.1)
    y = np.array([0.3, 0.9, 1.0, 1.4, 3.0])
    expected = shape.log_N - 0.5 * math.log(0.1) - (y - 1.0) ** 2 / 0.2
    np.testing.assert_allclose(log_density(y, shape), expected, rtol=1e-13)


def test_log_density_scalar_array_parity():
    shape = PacketShape.from_gamma(0.6, 2.0)
    ys = [0.2, 1.0, 1.8]
    arr = log_density(np.array(ys), shape)
    for y, a in zip(ys, arr):
        v = log_density(y, shape)
        assert isinstance(v, float)
        assert v == a


@pytest.mark.parametrize("gamma, B", [(0.3, 1e-6), (1.0, 0.5), (2.0, 1e-3),
                                      (7.5, 40.0)])
def test_density_exponent_and_its_inverse(gamma, B):
    shape = PacketShape.from_gamma(gamma, B)
    half_lnB = 0.5 * math.log(B)
    u = np.array([-0.7, -1e-3, 0.0, 2e-4, 0.25, 3.0, 40.0])
    s = density_exponent(u, shape.beta, gamma, half_lnB)
    np.testing.assert_allclose(
        s, shape.beta * (np.abs(u) / math.sqrt(B)) ** gamma, rtol=1e-13)
    assert s[2] == 0.0
    # constants given as (P, 1) columns broadcast over a (P, n) grid
    cols = [np.full((2, 1), c) for c in (shape.beta, gamma, half_lnB)]
    grid = np.vstack([u, -u])
    np.testing.assert_array_equal(density_exponent(grid, *cols),
                                  np.vstack([s, s]))
    # a scalar offset, as for log_density of a scalar y, gives the same value
    assert density_exponent(0.25, shape.beta, gamma, half_lnB) == s[4]


@given(
    gamma=st.floats(min_value=0.2, max_value=10.0),
    b_exp=st.floats(min_value=-8.0, max_value=2.0),
    u=st.floats(min_value=1e-8, max_value=1e3),
    factor=st.floats(min_value=1.0 + 1e-6, max_value=1e3),
)
@settings(max_examples=200)
def test_log_density_tails_decrease(gamma, b_exp, u, factor):
    shape = PacketShape.from_gamma(gamma, 10.0 ** b_exp)
    assert log_density(1.0 + u * factor, shape) <= log_density(1.0 + u, shape)


# --- moments ---------------------------------------------------------------

def _kurtosis(gamma):
    # <u^4> / B^2 = Gamma(5/g) Gamma(1/g) / Gamma(3/g)^2
    return math.exp(gammaln(5.0 / gamma) + gammaln(1.0 / gamma)
                    - 2.0 * gammaln(3.0 / gamma))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 4.0, 0.1000001, 10.0])
@pytest.mark.parametrize("B", [1e-4, 1.0, 25.0, 1e-12, 1e4])
def test_central_moments_match_closed_forms(gamma, B):
    shape = PacketShape.from_gamma(gamma, B)
    assert central_moment(shape, 0) == pytest.approx(1.0, abs=1e-9)
    assert central_moment(shape, 2) == pytest.approx(B, rel=1e-8)
    assert central_moment(shape, 4) == pytest.approx(B * B * _kurtosis(gamma),
                                                     rel=1e-7)


@pytest.mark.parametrize("B", [1e-4, 1e-8, 1e-12])
def test_central_moments_resolve_the_cusp_at_small_gamma(B):
    # at gamma = 0.11 the density mass piles up at offsets u below 1e-16,
    # which y = 1 + u would round to the cusp itself
    shape = PacketShape.from_gamma(0.11, B)
    assert central_moment(shape, 0) == pytest.approx(1.0, abs=1e-12)
    assert central_moment(shape, 2) == pytest.approx(B, rel=1e-12)
    assert central_moment(shape, 4) == pytest.approx(B * B * _kurtosis(0.11),
                                                     rel=1e-12)


def test_central_moment_at_the_edge_of_the_double_range():
    # the variance 1.7e308 is a double, but terms of its quadrature sum in
    # w = u/sqrt(B) exceed the largest double, so the sum must stay in logs
    # until the final exp
    shape = PacketShape.from_gamma(10.0, 1.7e308)
    assert central_moment(shape, 2) == pytest.approx(1.7e308, rel=1e-8)


def test_central_moment_beyond_the_double_range_raises():
    # <u^4> = 3 B^2 = 3e400 at gamma = 2 is no double: a ConvergenceError,
    # not inf or a bare OverflowError
    with pytest.raises(ConvergenceError):
        central_moment(PacketShape.from_gamma(2.0, 1e200), 4)


def test_fourth_moment_special_cases():
    # Gaussian kurtosis 3; two-sided exponential kurtosis 6
    assert central_moment(PacketShape.from_gamma(2.0, 0.5), 4) == \
        pytest.approx(3.0 * 0.25, rel=1e-8)
    assert central_moment(PacketShape.from_gamma(1.0, 0.5), 4) == \
        pytest.approx(6.0 * 0.25, rel=1e-8)


def test_central_moment_unsupported_orders():
    shape = PacketShape.from_gamma(2.0, 1.0)
    assert central_moment(shape, 1) == 0.0       # odd symmetry, no quadrature
    for k in (-1, 3, 5, 6):
        with pytest.raises(DomainError):
            central_moment(shape, k)


# --- tabulated densities --------------------------------------------------

def test_density_table_mass_and_reduced_variance():
    y = np.linspace(0.9, 1.1, 201)
    t = DensityTable(y=y, density=np.full_like(y, 5.0))
    assert t.mass() == pytest.approx(1.0, rel=1e-12)
    # Var/mean^2 of U(0.9, 1.1): (0.2^2/12) / 1^2
    assert t.reduced_variance() == pytest.approx(0.2 ** 2 / 12.0, rel=1e-3)


@pytest.mark.parametrize("y, d", [
    ([1.0], [1.0]),                      # too short
    ([0.5, 0.4], [1.0, 1.0]),            # decreasing y
    ([0.5, 0.5], [1.0, 1.0]),            # not strictly increasing
    ([-0.1, 0.5], [1.0, 1.0]),           # negative momentum
    ([0.5, 1.5], [1.0, -1.0]),           # negative density
    ([0.5, 1.5], [1.0, math.nan]),       # non-finite entry
    ([0.5, 1.5], [10.0, 10.0]),          # mass far above 1
    ([0.5, 1.0, 1.5], [1.0, 1.0]),       # column length mismatch
])
def test_density_table_rejects_malformed(y, d):
    with pytest.raises(TableFormatError):
        DensityTable(y=np.asarray(y, dtype=float),
                     density=np.asarray(d, dtype=float))


def _write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_read_density_table_parses_comments_and_blanks(tmp_path):
    p = _write(tmp_path, "# tabulated packet\ny,density\n\n0.5,0.1\n"
                         "1.0,1.2\n# midpoint comment\n1.5,0.1\n")
    t = read_density_table(p)
    assert t.y.tolist() == [0.5, 1.0, 1.5]
    assert t.density.tolist() == [0.1, 1.2, 0.1]


def test_read_density_table_header_spacing_tolerant(tmp_path):
    p = _write(tmp_path, " Y , Density \n0.5,0.4\n1.5,0.4\n")
    t = read_density_table(p)
    assert t.y.size == 2


@pytest.mark.parametrize("text, lineno", [
    ("momentum,weight\n0.5,1.0\n", 1),        # wrong header
    ("y,density\n0.5,1.0,9\n", 2),            # wrong cell count
    ("y,density\n0.5,abc\n", 2),              # non-numeric cell
    ("y,density\n0.5,0.2\n0.4,0.2\n", 3),     # ordering violation
    ("", 1),                                  # missing header entirely
    ("# only a comment\n", 1),
])
def test_read_density_table_reports_line_numbers(tmp_path, text, lineno):
    p = _write(tmp_path, text)
    with pytest.raises(TableFormatError) as exc_info:
        read_density_table(p)
    assert exc_info.value.line == lineno


def test_read_density_table_missing_file(tmp_path):
    with pytest.raises(TableFormatError):
        read_density_table(tmp_path / "absent.csv")
