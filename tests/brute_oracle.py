"""Independent numerical oracles used to freeze expected test values.

Nothing in here imports the package under test.  Three families:

* mpmath arbitrary-precision routes (integral representation of K1,
  tanh-sinh quadrature of the transmission integrand, closed-form moments,
  high-precision shape constants);
* a float64 composite-Simpson + Richardson evaluation of the transmission
  integral in log domain on a ~10^6-node window located by direct scan;
* plain bisection for the saddle equation.

They deliberately share no code with the package: different peak location,
different quadrature rules, different root finder.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy.special import logsumexp


# ----------------------------------------------------------------- mpmath

def mp_shape_constants(gamma, dps=40):
    """(beta, ln_N) as mpf via the defining Gamma expressions."""
    with mp.workdps(dps):
        g = mp.mpf(gamma)
        beta = (mp.gamma(3 / g) / mp.gamma(1 / g)) ** (g / 2)
        N = g * mp.sqrt(mp.gamma(3 / g)) / (2 * mp.gamma(1 / g) ** mp.mpf("1.5"))
        return beta, mp.log(N)


def mp_log_k1(z, dps=30):
    """ln K1(z) through the integral representation
    K1(z) = int_0^inf exp(-z cosh t) cosh t dt.

    Substituting s = sinh(t/2) (exact: cosh t - 1 = 2 s^2) gives
    K1(z) = 2 e^-z int_0^inf exp(-2 z s^2) (1 + 2 s^2) / sqrt(1 + s^2) ds,
    a pure Gaussian tail that tanh-sinh integrates to full precision at
    any z; the factored e^-z keeps the log exact for huge z.
    """
    with mp.workdps(dps):
        zz = mp.mpf(z)
        val = mp.quad(lambda s: 2 * mp.exp(-2 * zz * s * s)
                      * (1 + 2 * s * s) / mp.sqrt(1 + s * s),
                      [0, mp.inf])
        return float(-zz + mp.log(val))


def mp_central_moment(gamma, B, k, dps=40):
    """Closed form of the even central moment <u^k>, u = y - 1, as a float.

    Derived by the s = beta(|u|/sqrt(B))^gamma substitution:
       <u^k> = 2 N B^(k/2) beta^(-(k+1)/g) Gamma((k+1)/g) / g
    which reduces to 1 (k=0), B (k=2), B^2 G5 G1/G3^2 (k=4).
    """
    with mp.workdps(dps):
        g = mp.mpf(gamma)
        beta, lnN = mp_shape_constants(gamma, dps)
        N = mp.e ** lnN
        return float(2 * N * mp.mpf(B) ** (mp.mpf(k) / 2)
                     * beta ** (-(k + 1) / g) * mp.gamma((k + 1) / g) / g)


def _mp_h(y, A, B, beta, g):
    if y <= 0:
        return mp.mpf("-inf")
    return -A / y - beta * (abs(y - 1) ** 2 / B) ** (g / 2)


def mp_ln_T(A, B, gamma, dps=40, extra_points=()):
    """ln T by tanh-sinh quadrature in arbitrary precision.

    Splits at y = 1 (cusp for gamma < 2) and at the scanned peak; tanh-sinh
    handles the endpoint cusp exactly.  Slow but authoritative.  Raises
    ValueError where the peak is so narrow that the scan keeps a single
    point of it; mp_ln_T_saddle is the reference there.
    """
    with mp.workdps(dps):
        Am, Bm, g = mp.mpf(A), mp.mpf(B), mp.mpf(gamma)
        beta, lnN = mp_shape_constants(gamma, dps)

        ys = np.unique(np.concatenate([
            np.logspace(-8, 8, 20001),
            1.0 + math.sqrt(B) * np.linspace(-80.0, 80.0, 8001),
        ]))
        ys = ys[ys > 0]
        # plus the points where the density exponent is 1 ... 1000, so the
        # window reaches e^-300 of the peak even where the density is
        # wider than 80 sqrt(B) and the log grid is too coarse near y = 1
        offsets = (math.sqrt(B)
                   * (np.logspace(0, 3, 7) / float(beta)) ** (1 / gamma))
        ys_c = np.unique(np.concatenate([
            ys[:: max(1, len(ys) // 4000)], 1.0 - offsets, 1.0 + offsets]))
        ys_c = ys_c[ys_c > 0]
        hs = np.array([float(_mp_h(mp.mpf(y), Am, Bm, beta, g)) for y in ys_c])
        hmax = hs.max()
        keep = ys_c[hs >= hmax - 300.0]
        y_lo, y_hi = float(keep.min()), float(keep.max())
        if not y_lo < y_hi:
            raise ValueError(
                f"mp_ln_T: the peak at A={A}, B={B}, gamma={gamma} is "
                f"narrower than the scan, whose window has zero width at "
                f"y = {y_lo}; use mp_ln_T_saddle there")
        y_pk = float(ys_c[hs.argmax()])

        pts = sorted({y_lo, y_hi, y_pk, 1.0, *map(float, extra_points)})
        pts = [p for p in pts if y_lo <= p <= y_hi]

        shift = mp.mpf(hmax)  # factor out the peak to keep mpf exponents tame
        integral = mp.quad(lambda y: mp.e ** (_mp_h(y, Am, Bm, beta, g) - shift),
                           pts)
        return float(lnN - mp.log(Bm) / 2 + shift + mp.log(integral))


def mp_ln_T_saddle(A, B, gamma, dps=40, widths=60):
    """ln T by tanh-sinh quadrature over widths curvature widths either side
    of the saddle, which bisect_saddle finds: for packets so sharp at the
    saddle (huge A) that mp_ln_T's scan steps over the whole peak.  Beyond
    60 widths the integrand is below e^-1800 of its peak wherever the
    exponent is about quadratic over the window.  Raises ValueError where
    bisect_saddle finds no saddle in its scan, as below y - 1 = 1e-12."""
    with mp.workdps(dps):
        Am, Bm, g = mp.mpf(A), mp.mpf(B), mp.mpf(gamma)
        beta, lnN = mp_shape_constants(gamma, dps)
        y_star = bisect_saddle(float(Am * Bm ** (g / 2) / (g * beta)), gamma)
        if y_star is None:
            raise ValueError(
                f"mp_ln_T_saddle: at A={A}, B={B}, gamma={gamma} the saddle "
                f"lies below the scan of bisect_saddle (y - 1 >= 1e-12), or "
                f"there is none")
        y_star = mp.mpf(y_star)
        curvature = (2 * Am / y_star ** 3 + beta * g * (g - 1)
                     * (y_star - 1) ** (g - 2) / Bm ** (g / 2))
        w = widths / mp.sqrt(curvature)
        shift = _mp_h(y_star, Am, Bm, beta, g)
        integral = mp.quad(
            lambda y: mp.e ** (_mp_h(y, Am, Bm, beta, g) - shift),
            [y_star - w, y_star, y_star + w])
        return float(lnN - mp.log(Bm) / 2 + shift + mp.log(integral))


def mp_ln_T_steepest(A, B, gamma, dps=40):
    """High-precision evaluation of the steepest-descent closed form,
    arranged as the product formula rather than a sum of logs."""
    with mp.workdps(dps):
        Am, Bm, g = mp.mpf(A), mp.mpf(B), mp.mpf(gamma)
        beta, lnN = mp_shape_constants(gamma, dps)
        N = mp.e ** lnN
        gb = g * beta
        G = Am * Bm ** (g / 2) / gb
        X = (gb ** (1 / (g + 1)) * (Am ** 2 / Bm) ** (g / (2 * (g + 1)))
             * ((g + 1) / g - G ** (-1 / (g + 1))))
        pref = (N * mp.sqrt(2 * mp.pi / (g + 1)) * gb ** (-mp.mpf(3) / (2 * (g + 1)))
                * (Bm / Am ** 2) ** ((g - 2) / (4 * (g + 1))))
        return float(mp.log(pref) - X)


def mp_ln_T_bessel(A, B, dps=40):
    """gamma = 1 closed form with mpmath's own besselk (exact K1 route)."""
    with mp.workdps(dps):
        Am, Bm = mp.mpf(A), mp.mpf(B)
        beta, lnN = mp_shape_constants(1.0, dps)
        eta = mp.sqrt(2 / Bm)
        z = 2 * mp.sqrt(Am * eta)
        val = (lnN - mp.log(Bm) / 2 + eta + mp.log(2)
               + mp.log(Am / eta) / 2 + mp.log(mp.besselk(1, z)))
        return float(val)


# ------------------------------------------------------- float64 Simpson

def _h_float(y, A, B, beta, gamma):
    y = np.asarray(y, dtype=float)
    out = np.full(y.shape, -np.inf)
    m = y > 0
    with np.errstate(divide="ignore", over="ignore"):
        dens = beta * np.exp(gamma * (np.log(np.abs(y[m] - 1.0))
                                      - 0.5 * math.log(B)))
        out[m] = -A / y[m] - dens
    return out


def _simpson_ln(f, a, b, n):
    """ln of composite Simpson of exp(f) over [a, b] with n+1 nodes (n even)."""
    x = np.linspace(a, b, n + 1)
    v = f(x)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    h3 = (b - a) / n / 3.0
    return float(logsumexp(v, b=w)) + math.log(h3)


def simpson_ln_T(A, B, gamma, n_seg=2 ** 17, return_err=False):
    """Brute-force ln T: scanned window, composite Simpson per segment in
    log domain, Richardson extrapolation from the n and n/2 grids."""
    beta_mp, lnN_mp = mp_shape_constants(gamma)
    beta, lnN = float(beta_mp), float(lnN_mp)

    def f(y):
        return _h_float(y, A, B, beta, gamma)

    ys = np.unique(np.concatenate([
        np.logspace(-10, 10, 400001),
        1.0 + math.sqrt(B) * np.linspace(-100.0, 100.0, 40001),
    ]))
    ys = ys[ys > 0]
    hs = f(ys)
    hmax = float(hs.max())
    keep = ys[hs >= hmax - 300.0]
    y_lo, y_hi = float(keep.min()), float(keep.max())
    y_pk = float(ys[hs.argmax()])

    bounds = sorted({y_lo, y_hi, y_pk, 1.0})
    bounds = [b for b in bounds if y_lo <= b <= y_hi]

    def total_ln(n):
        return float(logsumexp([_simpson_ln(f, lo, hi, n)
                                for lo, hi in zip(bounds[:-1], bounds[1:])]))

    ln_coarse = total_ln(n_seg // 2)
    ln_fine = total_ln(n_seg)
    # Richardson in log domain: ln((16 S_f - S_c)/15)
    ln_rich = ln_fine + math.log((16.0 - math.exp(ln_coarse - ln_fine)) / 15.0)
    ln_T = lnN - 0.5 * math.log(B) + ln_rich
    if return_err:
        return ln_T, abs(ln_fine - ln_rich)
    return ln_T


# ------------------------------------------------------------- bisection

@functools.lru_cache(maxsize=4)
def _saddle_grid(y_max):
    """The scan grid of bisect_saddle, with 2 ln y and ln(y-1) at its
    points; a scan then allocates two arrays of its size, not four."""
    y = 1.0 + np.logspace(-12, math.log10(y_max), 200001)
    with np.errstate(divide="ignore"):
        return y, 2.0 * np.log(y), np.log(y - 1.0)


def bisect_saddle(G, gamma, y_max=1e7, iters=220):
    """Largest root of G/y^2 = (y-1)^(gamma-1) on (1, y_max) by bisection.

    Scans a fine log grid, y - 1 from 1e-12 to y_max, for the last sign
    change of psi(y) = ln G - 2 ln y - (gamma-1) ln(y-1), then bisects it
    down to double-precision width.  Returns None when no sign change
    exists.
    """
    y, two_ln_y, ln_ym1 = _saddle_grid(y_max)
    psi = np.subtract(math.log(G), two_ln_y)
    psi -= np.multiply(gamma - 1.0, ln_ym1)
    # strict sign changes, as sign(psi[i]) sign(psi[i+1]) < 0 finds them
    pos, neg = psi > 0.0, psi < 0.0
    flips = np.nonzero((pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:]))[0]
    if len(flips) == 0:
        return None
    i = flips[-1]  # upper branch = local maximum of the exponent
    lo, hi = y[i], y[i + 1]

    def val(yy):
        return math.log(G) - 2.0 * math.log(yy) - (gamma - 1.0) * math.log(yy - 1.0)

    flo = val(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = val(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
