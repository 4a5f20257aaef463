"""Transmission probability of a momentum packet through a high Coulomb barrier.

Everything is reduced: y = p/p0, A = a/p0 (barrier strength), B = sigma_p/p0^2.
The plane-wave kernel is D(y) = exp(-A/y); the packet-averaged probability is

    T(A, B) = (N/sqrt(B)) Int_0^inf exp[h(y)] dy,
    h(y)    = -A/y - beta (|y-1|^2 / B)^(gamma/2),

evaluated here four ways: adaptive log-domain Gauss-Kronrod quadrature of the
integral (the reference path), a steepest-descent closed form built on the
saddle of h, an exact Bessel-K1 form for gamma = 1, and a log-domain trapezoid
rule over user-tabulated densities.  T can be as small as e^-1000 and the
interesting regime has T/e^-A as large as e^+400, so no code path ever forms
T itself -- only ln T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    RangeError,
    RegimeError,
    TableFormatError,
    require_positive,
)
from .packet import (
    GAMMA_MAX,
    GAMMA_MIN,
    DensityTable,
    PacketShape,
    _density_exponent,
    _exponent_offset,
    shape_constants,
)
from .specfun import (
    LogMagnitude,
    _log_sum_exp_segments,
    log_bessel_k1,
    log_bessel_k1_asymptotic,
    log_sum_exp,
)

__all__ = [
    "BarrierQuery",
    "TransmissionResult",
    "plane_wave_log_D",
    "planewave_validity",
    "G_param",
    "saddle_point_numeric",
    "saddle_point_approx",
    "log_integrand",
    "ln_T_quadrature",
    "ln_T_steepest",
    "ln_T_bessel_gamma1",
    "ln_T_from_table",
    "evaluate",
    "evaluate_many",
    "route",
]

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)

METHODS = ("quadrature", "steepest_descent", "bessel_gamma1", "auto")

# A*sqrt(B) below this counts as "plane-wave condition satisfied"
PLANEWAVE_THRESHOLD = 0.1
# G^(1/(gamma+1)) below this flags the steepest-descent value as low-confidence
LOW_CONFIDENCE_THRESHOLD = 5.0
# below this B the packet is a delta at double precision: T = D(p0) exactly
B_DELTA_CUTOFF = 1e-14
# minimum A for the gamma=1 closed form (|y-1| -> y-1 replacement)
BESSEL_MIN_A = 10.0

# 7-15 Gauss-Kronrod pair (nodes/weights to 15 digits)
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES15 = np.concatenate((-_XGK[:-1], _XGK[::-1]))
# Kronrod weights, then Gauss weights, which sit at the odd Kronrod nodes
_W15 = np.zeros((2, 15))
_W15[0] = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W15[1, 1::2] = np.concatenate((_WG[:-1], _WG[::-1]))

# seed panel boundaries (see _seed_panels): density exponents of the
# ladder, multiples of the kernel scale 1/A, and of the saddle width; the
# points of the bridge to a far-out saddle; the tail's fractions of 1/(1+u_hi)
_LADDER_Q = np.logspace(-3.0, 2.5, 12)
_KERNEL_SCALES = np.array([1.0, 8.0, 64.0])
_SADDLE_OFFSETS = np.array([-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0, 64.0])
_BRIDGE_POINTS = 8
_TAIL_FRACTIONS = np.array([0.0, 0.25, 0.5, 1.0])
# boundaries per section of a query's seed: the right section's two ends
# and every candidate point, the widest of the three sections
_SEED_WIDTH = (2 + _LADDER_Q.size + _KERNEL_SCALES.size + _SADDLE_OFFSETS.size
               + _BRIDGE_POINTS)

# panel coordinates of the quadrature engine (see _log_integrand), and of
# each seed section (right, left, tail) for gamma >= 1 and for gamma < 1
_U, _TAIL, _S_RIGHT, _S_LEFT = range(4)
_U_COORDS = np.array([_U, _U, _TAIL])
_S_COORDS = np.array([_S_RIGHT, _S_LEFT, _TAIL])
# queries per engine call in evaluate_many; bounds the engine's memory
_BLOCK = 32
# steepest-descent queries per _steepest_block call in evaluate_many
_STEEPEST_BLOCK = 1024
# (xtol, rtol, maxiter) of the saddle root in t = ln(y-1)
_SADDLE_TOL = (1e-14, 8.9e-16, 200)


@dataclass(frozen=True)
class BarrierQuery:
    """One transmission evaluation request in reduced units."""

    A: float
    B: float
    gamma: float
    method: str = "auto"

    def __post_init__(self):
        for name in ("A", "B", "gamma"):
            require_positive(name, getattr(self, name))
        if not (GAMMA_MIN < self.gamma <= GAMMA_MAX):
            raise RangeError(f"gamma={self.gamma} outside supported range "
                             f"({GAMMA_MIN}, {GAMMA_MAX}]")
        if self.method not in METHODS:
            raise DomainError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.method == "bessel_gamma1" and self.gamma != 1.0:
            raise DomainError("method bessel_gamma1 requires gamma = 1")
        if self.method == "bessel_gamma1" and self.A < BESSEL_MIN_A:
            raise DomainError(
                f"method bessel_gamma1 requires A >= {BESSEL_MIN_A}, got A={self.A}")


@dataclass(frozen=True)
class TransmissionResult:
    """Log-domain transmission value plus diagnostics."""

    ln_T: float
    G: float | None
    planewave_ok: bool
    method_used: str
    y_star_numeric: float | None = None
    y_star_approx: float | None = None
    quad_error_ln: float | None = None
    low_confidence: bool | None = None
    ln_T_asymptotic: float | None = None

    @property
    def log10_T(self) -> float:
        return self.ln_T / _LN10

    @property
    def magnitude(self) -> LogMagnitude:
        return LogMagnitude(self.ln_T)


def plane_wave_log_D(A: float, y: float) -> float:
    """ln D for a single plane wave of reduced momentum y: -A/y."""
    require_positive("A", A)
    if not (y > 0.0):
        raise DomainError(f"plane-wave kernel needs y > 0 (right-movers), got {y!r}")
    return -A / y


def planewave_validity(A: float, B: float) -> tuple[float, bool]:
    """The sharp-packet condition A*sqrt(B) << 1: (value, value < 0.1)."""
    v = A * math.sqrt(B)
    return v, v < PLANEWAVE_THRESHOLD


def _G(A: float, B: float, gamma: float, beta: float) -> float:
    """G = A B^(gamma/2) / (gamma beta) in plain arithmetic, or from its log
    where the power leaves the double range; inf where G itself does."""
    try:
        G = A * B ** (gamma / 2.0) / (gamma * beta)
    except OverflowError:
        G = math.inf
    if G == 0.0 or G == math.inf:
        with np.errstate(over="ignore"):
            G = float(np.exp(math.log(A) + 0.5 * gamma * math.log(B)
                             - math.log(gamma * beta)))
    return G


def G_param(A: float, B: float, gamma: float) -> float:
    """Saddle-equation parameter G = A B^(gamma/2) / (gamma beta); inf
    beyond the double range."""
    A, B, gamma = (require_positive(name, v) for name, v in
                   (("A", A), ("B", B), ("gamma", gamma)))
    return _G(A, B, gamma, shape_constants(gamma)[0])


def _saddle_shifted(t: float, lnG: float, gamma: float) -> float:
    # saddle equation in t = ln(y-1):  lnG - 2 ln(1+e^t) - (gamma-1) t = 0,
    # with ln(1+e^t) computed as np.logaddexp(0.0, t) does, in its branches
    # and operand order, on floats
    if t == 0.0:
        ln1p_exp = _LN2
    else:
        ln1p_exp = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
    return lnG - 2.0 * ln1p_exp - (gamma - 1.0) * t


def _brentq(f, xa, xb, args, xtol, rtol, maxiter):
    """A root of f(x, *args) in the sign-changing bracket [xa, xb].

    Brent's method step for step as in scipy's brentq.c: the same
    bookkeeping (xblk, spre, scur), tolerance delta = (xtol + rtol|x|)/2
    and interpolate/extrapolate/bisect choice, so each call returns the
    bits scipy.optimize.brentq would.  Raises ConvergenceError after
    maxiter steps.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre, *args))
    fcur = float(f(xcur, *args))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"f({xa}) and f({xb}) must differ in sign")
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur, *args))
    raise ConvergenceError(f"root not found in {maxiter} iterations")


def _saddle_residual(t, lnG, gamma):
    # _saddle_shifted on arrays; np.logaddexp gives the same bits
    return lnG - 2.0 * np.logaddexp(0.0, t) - (gamma - 1.0) * t


def _brentq_many(lnG, gamma, t_lo, t_hi, xtol, rtol, maxiter):
    """_brentq of the saddle residual on many brackets [t_lo, t_hi] at once.

    Each branch of the scalar step is a np.where over the same IEEE
    operations, so every element takes the steps, and returns the bits,
    that _brentq(_saddle_shifted, ...) would on its own bracket.  An
    element leaves the working arrays as soon as it converges.  Returns
    the roots, nan where maxiter steps find none; raises DomainError if a
    bracket does not change sign.
    """
    lnG, gamma, xpre, xcur = (np.array(v, dtype=float)
                              for v in (lnG, gamma, t_lo, t_hi))
    fpre = _saddle_residual(xpre, lnG, gamma)
    fcur = _saddle_residual(xcur, lnG, gamma)
    root = np.where(fpre == 0.0, xpre, np.where(fcur == 0.0, xcur, np.nan))
    idx = np.flatnonzero(np.isnan(root))
    if np.any(np.signbit(fpre[idx]) == np.signbit(fcur[idx])):
        raise DomainError("every bracket's residuals must differ in sign")
    lnG, gamma, xpre, xcur, fpre, fcur = (
        v[idx] for v in (lnG, gamma, xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros(idx.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(maxiter):
            if not idx.size:
                break
            new = ((fpre != 0.0) & (fcur != 0.0)
                   & (np.signbit(fpre) != np.signbit(fcur)))
            xblk = np.where(new, xpre, xblk)
            fblk = np.where(new, fpre, fblk)
            spre = np.where(new, xcur - xpre, spre)
            scur = np.where(new, spre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre),
                                np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre),
                                np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.any():
                root[idx[done]] = xcur[done]
                left = ~done
                (idx, lnG, gamma, xpre, xcur, xblk, fpre, fcur, fblk, spre,
                 scur, delta, sbis) = (
                    v[left] for v in (idx, lnG, gamma, xpre, xcur, xblk, fpre,
                                      fcur, fblk, spre, scur, delta, sbis))
            # interpolate where xpre == xblk, else extrapolate
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                (-fcur * (fblk * dblk - fpre * dpre)
                 / (dblk * dpre * (fblk - fpre))))
            # a good short step, else bisection
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry)
                        < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
            spre = np.where(short, scur, sbis)
            scur = np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur,
                                   np.where(sbis > 0, delta, -delta))
            fcur = _saddle_residual(xcur, lnG, gamma)
    return root


def _saddle_bracket(G: float, gamma: float) -> tuple[float, float]:
    """A bracket [t_lo, t_hi] of the saddle root in t = ln(y-1), gamma != 1:
    the residual is at least 0 at t_lo and at most 0 at t_hi."""
    lnG = math.log(G)
    t_cap = math.log(1e6)  # search window (1, 1 + 1e6) in y
    if gamma > 1.0:
        # strictly decreasing in t
        t_hi = max(lnG / (gamma + 1.0), 0.0) + 1.0
        t_lo = min(lnG / (gamma + 1.0), lnG / (gamma - 1.0), 0.0) - 1.0
    else:
        # two branches; the upper one (local maximum of h) lies right of the
        # critical point y_c = 2/(gamma+1)
        t_c = math.log((1.0 - gamma) / (1.0 + gamma))
        if _saddle_shifted(t_c, lnG, gamma) <= 0.0:
            raise ConvergenceError(
                f"integrand exponent has no stationary point on (1, inf) "
                f"for G={G}, gamma={gamma}")
        t_lo = t_c
        t_hi = max(t_c, lnG / (gamma + 1.0)) + 1.0
    steps = 0
    while _saddle_shifted(t_hi, lnG, gamma) > 0.0:
        t_hi += 2.0
        steps += 1
        if t_hi > t_cap or steps > 400:
            raise ConvergenceError(
                f"no saddle bracket below y = 1 + 1e6 (G={G}, gamma={gamma})")
    # for gamma < 1 the residual is already positive at t_lo = t_c
    step = 2.0
    while _saddle_shifted(t_lo, lnG, gamma) < 0.0:
        t_lo -= step
        step *= 2.0
        if t_lo < -1e8:
            raise ConvergenceError(
                f"saddle point indistinguishable from 1 (G={G}, gamma={gamma})")
    return t_lo, t_hi


def saddle_point_numeric(G: float, gamma: float) -> float:
    """The stationary point y* > 1 of the integrand exponent.

    Solves G/y^2 = (y-1)^(gamma-1) in t = ln(y-1), where the equation is
    monotone for gamma >= 1 and has a well-separated upper branch for
    gamma < 1.  For gamma = 1 the root is sqrt(G) in closed form.
    """
    G = require_positive("G", G)
    gamma = require_positive("gamma", gamma)
    if gamma == 1.0:
        return math.sqrt(G)
    t_lo, t_hi = _saddle_bracket(G, gamma)
    t_star = _brentq(_saddle_shifted, t_lo, t_hi, (math.log(G), gamma),
                     *_SADDLE_TOL)
    y_star = 1.0 + math.exp(t_star)
    if y_star <= 1.0:
        raise ConvergenceError(
            f"saddle point indistinguishable from 1 (G={G}, gamma={gamma})")
    return y_star


def saddle_point_approx(G: float, gamma: float) -> float:
    """Large-G approximation y* ~= G^(1/(gamma+1)) + (gamma-1)/(gamma+1)."""
    G = require_positive("G", G)
    gamma = require_positive("gamma", gamma)
    return G ** (1.0 / (gamma + 1.0)) + (gamma - 1.0) / (gamma + 1.0)


def _saddle(A: float, shape: PacketShape) -> tuple:
    """(G, y*, plane-wave verdict) of one query, the saddle solved on its
    own by saddle_point_numeric; y* is None where no stationary point is
    reachable.  _steepest_block derives the same values in arrays."""
    G = _G(A, shape.B, shape.gamma, shape.beta)
    y_num = None
    if 0.0 < G < math.inf:
        try:
            y_num = saddle_point_numeric(G, shape.gamma)
        except ConvergenceError:
            pass
    return G, y_num, planewave_validity(A, shape.B)[1]


def _head(method_used: str, gamma: float, G: float, y_num, planewave_ok):
    """The result fields every (A, B, gamma) route shares, from G, the
    numeric stationary point y_num (None where unreachable) and the
    plane-wave verdict, as _saddle or _steepest_block derive them.

    G is None when it overflows.  Results publish only stationary points
    above 1: the gamma = 1 root sqrt(G) drops below 1 when G < 1 (peak at
    the cusp).
    """
    finite = 0.0 < G < math.inf
    return dict(G=G if G < math.inf else None, planewave_ok=planewave_ok,
                method_used=method_used,
                y_star_approx=saddle_point_approx(G, gamma) if finite else None,
                y_star_numeric=y_num if y_num and y_num > 1.0 else None)


def log_integrand(y, A: float, shape: PacketShape):
    """The exponent h(y) = -A/y - beta (|y-1|^2/B)^(gamma/2); -inf for y <= 0.

    The quadrature engine's u = y - 1 coordinate run on one row.  It keeps
    that coordinate's rounding: near y = 0 the kernel -A/(1 + (y - 1)) is
    off by about 1e-16/y relative, and below y ~ 1e-16 it is -inf.
    """
    u = np.asarray(y, dtype=float) - 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _log_integrand(u.reshape(1, -1), np.array([_U]),
                             np.array([_query_consts(A, shape)]))
    out = out.reshape(u.shape)
    if np.ndim(y) == 0:
        return float(out)
    return out


def _curvature_width(A: float, shape: PacketShape, u_star: float) -> float:
    """1/sqrt(-h'') at the saddle, clamped to a sane range; sets panel scale."""
    y = 1.0 + u_star
    dens2 = (shape.gamma * (shape.gamma - 1.0) * shape.beta
             * np.exp((shape.gamma - 2.0) * np.log(u_star)
                      - 0.5 * shape.gamma * math.log(shape.B)))
    hpp = -2.0 * A / y ** 3 - float(dens2)
    w = 1.0 / math.sqrt(max(-hpp, 1e-300))
    return min(max(w, 1e-13 * y), 10.0 * y)


def _columns(k):
    """The constants of rows k of a _query_consts table as (P, 1) columns:
    A, gamma, beta, ln(B)/2, sqrt(B), ln(beta), the s-coordinate Jacobian
    constant and its power of s, 1/gamma - 1."""
    return k.T[:, :, None]


def _query_consts(A: float, shape: PacketShape) -> tuple[float, ...]:
    """One query's row of the engine's constant table (see _columns)."""
    g = shape.gamma
    lnB = math.log(shape.B)
    ln_beta = math.log(shape.beta)
    return (A, g, shape.beta, 0.5 * lnB, math.sqrt(shape.B), ln_beta,
            0.5 * lnB - math.log(g) - ln_beta / g, 1.0 / g - 1.0)


def _log_integrand(x, coord, k):
    """ln of the integrand at the nodes x (P, 15) of P panels.

    Row r lies in coordinate coord[r] and k[r] holds its query's constants.
    The coordinates are u = y - 1 on both sides of the density peak and
    t = 1/y on the far tail.  For gamma < 1 the density exponent has a cusp
    at u = 0 with infinite one-sided slope, so both near-peak regions are
    traversed in s = beta (|u|/sqrt(B))^gamma instead, where the exponent
    is exactly linear and the cusp becomes an integrable endpoint power.
    """
    out = np.full(x.shape, -np.inf)
    r = np.flatnonzero(coord == _U)
    if r.size:
        A, g, beta, half_lnB = _columns(k[r])[:4]
        u = x[r]
        out[r] = np.where(
            u > -1.0,
            -A / (1.0 + u) - _density_exponent(u, beta, g, half_lnB),
            -np.inf)
    r = np.flatnonzero(coord == _TAIL)
    if r.size:
        A, g, beta, half_lnB = _columns(k[r])[:4]
        t = x[r]
        dens = _density_exponent((1.0 - t) / t, beta, g, half_lnB)
        out[r] = np.where((t > 0.0) & (t < 1.0),
                          -A * t - dens - 2.0 * np.log(t), -np.inf)
    r = np.flatnonzero(coord >= _S_RIGHT)
    if r.size:
        A, g, _, _, sqB, ln_beta, ln_jac, power = _columns(k[r])
        side = np.where(coord[r] == _S_LEFT, -1.0, 1.0)[:, None]
        s = x[r]
        y = 1.0 + side * _exponent_offset(s, ln_beta, g, sqB)
        out[r] = np.where((s > 0.0) & (y > 0.0),
                          -A / y - s + ln_jac + power * np.log(s), -np.inf)
    return out


def _gk15(coord, a, b, k):
    """One 7-15 Gauss-Kronrod rule of exp(integrand) on each panel [a, b].

    Returns (ln of Kronrod estimate, ln of |Kronrod - Gauss|) per panel.
    Each panel's values are shifted by its own max before exponentiation,
    so panels whose whole integrand sits 1000s of e-folds below the global
    peak still come out with finite, comparable logs.  The weighted sums
    are a fixed tree of elementwise adds, not a BLAS product, so a panel's
    bits do not depend on which other panels share the call.
    """
    hw = 0.5 * (b - a)
    v = _log_integrand((0.5 * (a + b))[:, None] + hw[:, None] * _NODES15,
                       coord, k)
    m = v.max(axis=1)
    finite = np.isfinite(m)
    m = np.where(finite, m, 0.0)
    terms = np.exp(v - m[:, None])[:, None, :] * _W15  # (P, 2, 15)
    sums = terms[..., :8].copy()
    sums[..., :7] += terms[..., 8:]
    sums = sums[..., :4] + sums[..., 4:]
    sums = sums[..., :2] + sums[..., 2:]
    sk, sg = np.ascontiguousarray((sums[..., 0] + sums[..., 1]).T)
    diff = np.abs(sk - sg)
    ln_hw = np.log(hw)
    ln_I = np.where(finite, m + np.log(sk) + ln_hw, -np.inf)
    ln_err = np.where(finite & (diff > 0.0),
                      m + np.log(diff) + ln_hw, -np.inf)
    return ln_I, ln_err


def _splittable(a, b, depth, max_depth):
    """Panels that may still be bisected: below max_depth and wide enough
    that their midpoint is a double strictly inside them."""
    mid = 0.5 * (a + b)
    return (depth < max_depth) & (a < mid) & (mid < b)


def _rel_error(ln_I, ln_err):
    """Summed panel error over the integral, from their logs."""
    rel = np.exp(np.minimum(ln_err - ln_I, 700.0))
    zero = ln_I == -np.inf
    return np.where(zero, np.where(ln_err == -np.inf, 0.0, np.inf), rel)


def _log_quadrature(k, seeds, rel_target=1e-7, hard_rel=1e-6, max_depth=20,
                    max_panels=4000):
    """Greedy worst-panel refinement of a batch of log-domain GK15 integrals.

    k is the (Q, 8) constant table of Q queries (one _query_consts row
    each) and seeds the flat (q, coord, a, b) arrays of their seed panels,
    as _seed_panels makes them: query-major, each panel of nonzero width.
    Panels live in flat arrays in creation order.  Refinement runs in
    rounds: in each round every unconverged query bisects its live panel of
    highest ln_err (the earliest created on ties), and all the children are
    evaluated in one call.  A panel at max_depth or too narrow to halve is
    frozen: it keeps contributing value and error but is never split.  A
    query stops at rel <= rel_target, when no live panel is left, when its
    worst live panel reports zero error, or once it has created max_panels
    panels.  So each query takes the same steps whatever else is batched
    with it.

    Returns per-query arrays (ln_integral, rel_error, converged);
    rel_error is the summed panel error divided by the integral, which in
    log domain is also the absolute uncertainty of ln_integral, and
    converged is rel_error <= hard_rel.  The caller holds the np.errstate
    that silences the -inf and overflow of nodes far out on a tail.
    """
    nq = len(k)
    q, coord, a, b = seeds
    depth = np.zeros(q.size, dtype=int)
    ln_I, ln_err = _gk15(coord, a, b, k[q])
    counted = np.ones(q.size, dtype=bool)  # not yet replaced by children
    live = _splittable(a, b, depth, max_depth)
    created = np.bincount(q, minlength=nq)
    tot_I = _log_sum_exp_segments(ln_I, q, nq)
    tot_err = _log_sum_exp_segments(ln_err, q, nq)
    rel = _rel_error(tot_I, tot_err)
    active = (rel > rel_target) & (created < max_panels)

    while active.any():
        cand = np.flatnonzero(live & active[q])
        # lexsort is stable, so equal ln_err keeps creation order
        order = cand[np.lexsort((-ln_err[cand], q[cand]))]
        first = np.ones(order.size, dtype=bool)
        first[1:] = q[order[1:]] != q[order[:-1]]
        worst = order[first]
        worst = worst[ln_err[worst] > -np.inf]
        active[:] = False
        if not worst.size:
            break
        split_q = q[worst]
        lo, hi = a[worst], b[worst]
        mid = 0.5 * (lo + hi)
        counted[worst] = live[worst] = False
        ca = np.column_stack((lo, mid)).ravel()
        cb = np.column_stack((mid, hi)).ravel()
        cq = np.repeat(split_q, 2)
        cc = np.repeat(coord[worst], 2)
        cd = np.repeat(depth[worst] + 1, 2)
        c_I, c_err = _gk15(cc, ca, cb, k[cq])
        q, coord, a, b = (np.concatenate(p) for p in
                          ((q, cq), (coord, cc), (a, ca), (b, cb)))
        depth = np.concatenate((depth, cd))
        ln_I = np.concatenate((ln_I, c_I))
        ln_err = np.concatenate((ln_err, c_err))
        counted = np.concatenate((counted, np.ones(cq.size, dtype=bool)))
        live = np.concatenate((live, _splittable(ca, cb, cd, max_depth)))
        created[split_q] += 2

        member = np.zeros(nq, dtype=bool)
        member[split_q] = True
        sel = counted & member[q]
        tot_I[split_q] = _log_sum_exp_segments(ln_I[sel], q[sel], nq)[split_q]
        tot_err[split_q] = _log_sum_exp_segments(ln_err[sel], q[sel],
                                                 nq)[split_q]
        rel[split_q] = _rel_error(tot_I[split_q], tot_err[split_q])
        active[split_q] = ((rel[split_q] > rel_target)
                           & (created[split_q] < max_panels))

    return tot_I, rel, rel <= hard_rel


def _seed_panels(k, u_star, width):
    """Seed panels of a block of queries, straddling every known feature of
    each integrand, as flat (q, coord, a, b) arrays: the query (row of the
    (Q, 8) _query_consts table k), the coordinate of _log_integrand and the
    ends of each panel.  u_star = y* - 1 and width (the curvature width)
    hold each query's saddle, nan where it has none above y = 1.

    Boundaries come from three length scales: the density ladder (points
    where the density exponent equals fixed values from 1e-3 to ~300), the
    kernel scale 1/A where exp(-A/y) turns over, and the saddle width when
    a saddle exists.  The adaptive pass only has to polish from there.
    Every query's boundaries sit in a fixed-width (3, _SEED_WIDTH) row per
    section (right of u = 0, left of it, the tail), padded with a copy of
    a boundary, so one sort orders them all and the zero-width panels
    between equal boundaries are dropped.  Panels come out query-major
    and, within a query, right, left, then tail.
    """
    A, g, beta, half_lnB, sqB, ln_beta = _columns(k)[:6]
    u_star, width = u_star[:, None], width[:, None]
    ladder = _exponent_offset(_LADDER_Q, ln_beta, g, sqB)
    kernel = _KERNEL_SCALES / np.maximum(A, 1.0)
    saddle = u_star + _SADDLE_OFFSETS * width
    u_hi = np.fmax.reduce(np.concatenate((ladder, kernel, saddle), axis=1),
                          axis=1, keepdims=True, initial=7.0)
    # bridge wide gaps between the density scale and a far-out saddle
    bridge = np.full((len(k), _BRIDGE_POINTS), np.nan)
    ladder_max = ladder.max(axis=1)
    far = u_star[:, 0] > 10.0 * ladder_max
    if far.any():
        bridge[far] = np.geomspace(ladder_max[far], u_star[far, 0],
                                   _BRIDGE_POINTS, axis=1)

    edges = np.empty((len(k), 3, _SEED_WIDTH))
    right, left, tail = edges[:, 0], edges[:, 1], edges[:, 2]
    right[:, 0] = 0.0
    right[:, 1] = u_hi[:, 0]
    # no candidate exceeds u_hi; fmax sends the saddle points below u = 0
    # and the missing ones (nan) to the end 0, as a repeat of it
    np.fmax(np.concatenate((ladder, kernel, saddle, bridge), axis=1), 0.0,
            out=right[:, 2:])
    left[:, 0] = -1.0
    left[:, 1:] = 0.0
    # every candidate is negative; those at or beyond u = -1 repeat that end
    np.fmax(-np.concatenate((ladder, kernel), axis=1), -1.0,
            out=left[:, 2:2 + ladder.shape[1] + kernel.shape[1]])
    t_hi = 1.0 / (1.0 + u_hi)
    tail[:, :4] = t_hi * _TAIL_FRACTIONS
    tail[:, 4:] = t_hi

    low = g < 1.0
    if low.any():
        # remap the same boundaries into s, where the cusp is integrable
        s = _density_exponent(edges[:, :2], beta[..., None], g[..., None],
                              half_lnB[..., None])
        np.copyto(edges[:, :2], s, where=low[..., None])
    coords = np.where(low, _S_COORDS, _U_COORDS)

    edges.sort(axis=-1)
    a, b = edges[..., :-1], edges[..., 1:]
    keep = b > a
    section = np.flatnonzero(keep) // (_SEED_WIDTH - 1)
    return section // 3, coords.ravel()[section], a[keep], b[keep]


def _quadrature_block(queries):
    """ln_T_quadrature of each query, with one engine call for all of them;
    a ConvergenceError stands in for the result of a query that fails."""
    results = [None] * len(queries)
    heads, consts, u_star, width = [], [], [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, query in enumerate(queries):
            shape = PacketShape.from_gamma(query.gamma, query.B)
            A = float(query.A)
            head = _head("quadrature", shape.gamma, *_saddle(A, shape))
            if query.B < B_DELTA_CUTOFF:
                # a delta packet at double precision; quadrature would be wasted
                head["planewave_ok"] = True
                results[i] = TransmissionResult(ln_T=-A, quad_error_ln=0.0,
                                                **head)
                continue
            heads.append((i, query, shape, head))
            consts.append(_query_consts(A, shape))
            # gamma < 1 may have no stationary point; the peak is then y = 1
            y_star = head["y_star_numeric"]
            u = math.nan if y_star is None else y_star - 1.0
            u_star.append(u)
            width.append(math.nan if y_star is None
                         else _curvature_width(A, shape, u))
        if not heads:
            return results
        k = np.array(consts)
        ln_I, rel, ok = _log_quadrature(
            k, _seed_panels(k, np.array(u_star), np.array(width)))
    for (i, query, shape, head), ln_Ii, rel_err, ok_i in zip(
            heads, ln_I.tolist(), rel.tolist(), ok.tolist()):
        ln_T = shape.log_N - 0.5 * math.log(shape.B) + ln_Ii
        ln_T = min(ln_T, 0.0)
        if not ok_i:
            results[i] = ConvergenceError(
                f"quadrature failed to reach 1e-6 (got {rel_err:.2e}) for "
                f"A={float(query.A)}, B={query.B}, gamma={query.gamma}",
                ln_T=ln_T, quad_error_ln=rel_err)
        else:
            results[i] = TransmissionResult(ln_T=ln_T, quad_error_ln=rel_err,
                                            **head)
    return results


def ln_T_quadrature(query: BarrierQuery) -> TransmissionResult:
    """Packet-averaged ln T by adaptive log-domain quadrature.

    The integrand peak is bracketed first (saddle machinery plus the y < 1
    branch, which is monotone increasing toward y = 1), the domain is split
    at the peak and the y = 1 cusp, and panels are refined greedily until
    the estimated relative error drops below 1e-7 (reported bound 1e-6).
    This is evaluate_many's quadrature engine run on a batch of one.
    """
    res, = _quadrature_block([query])
    if isinstance(res, ConvergenceError):
        raise res
    return res


def _steepest_block(queries):
    """ln_T_steepest of each query, with the closed form, G's flags and the
    saddle solve of the whole block in arrays.

    shape_constants runs once per distinct gamma.  What numpy's array
    functions may round differently from math stays per query in math:
    the logarithms, the powers in G and y_star_approx, the saddle bracket
    and y* = 1 + e^t*.  The saddles of all gamma != 1 queries are solved
    by one _brentq_many call.  So each value is bit-identical to the
    query's own evaluation, however the queries are batched.
    """
    consts = {}
    for q in queries:
        if q.gamma not in consts:
            beta, log_N = shape_constants(q.gamma)
            gp1 = q.gamma + 1.0
            consts[q.gamma] = (beta, log_N, math.log(q.gamma * beta),
                               math.log(2.0 * math.pi / gp1))
    A = [float(q.A) for q in queries]
    B = [float(q.B) for q in queries]
    gammas = [float(q.gamma) for q in queries]
    beta, log_N, ln_gb, ln_2pi = np.array([consts[q.gamma] for q in queries]).T
    lnA = np.array([math.log(a) for a in A])
    lnB = np.array([math.log(b) for b in B])
    g = np.array(gammas)
    gp1 = g + 1.0
    lnG = lnA + 0.5 * g * lnB - ln_gb
    ln_pref = (log_N + 0.5 * ln_2pi - 1.5 / gp1 * ln_gb
               + 0.25 * (g - 2.0) / gp1 * (lnB - 2.0 * lnA))
    with np.errstate(over="ignore", invalid="ignore"):
        big = np.exp(ln_gb / gp1 + 0.5 * g / gp1 * (2.0 * lnA - lnB))
        correction = gp1 / g - np.exp(-lnG / gp1)
        ln_T = ln_pref - big * correction
        low = (np.exp(lnG / gp1) < LOW_CONFIDENCE_THRESHOLD) | (ln_T > 0.0)
        planewave_ok = np.array(A) * np.sqrt(B) < PLANEWAVE_THRESHOLD

    G = [_G(a, b, gi, bi) for a, b, gi, bi in zip(A, B, gammas, beta.tolist())]
    y_num = [None] * len(queries)
    solve, brackets = [], []
    for i, (Gi, gi) in enumerate(zip(G, gammas)):
        if not 0.0 < Gi < math.inf:
            continue
        if gi == 1.0:
            y_num[i] = math.sqrt(Gi)
            continue
        try:
            brackets.append((math.log(Gi), gi, *_saddle_bracket(Gi, gi)))
        except ConvergenceError:
            continue
        solve.append(i)
    if solve:
        t_star = _brentq_many(*zip(*brackets), *_SADDLE_TOL)
        for i, t in zip(solve, t_star.tolist()):
            # nan: no root within maxiter steps
            y_num[i] = None if math.isnan(t) else 1.0 + math.exp(t)

    return [TransmissionResult(
                ln_T=lt, **_head("steepest_descent", gi, Gi, yi, pw),
                low_confidence=lc)
            for lt, gi, Gi, yi, pw, lc in zip(
                ln_T.tolist(), gammas, G, y_num, planewave_ok.tolist(),
                low.tolist())]


def ln_T_steepest(query: BarrierQuery) -> TransmissionResult:
    """Steepest-descent (Laplace) closed form for ln T.

    ln T* = ln N + (1/2) ln(2 pi/(gamma+1)) - 3/(2(gamma+1)) ln(gamma beta)
            + (gamma-2)/(4(gamma+1)) ln(B/A^2)
            - (gamma beta)^(1/(gamma+1)) (A^2/B)^(gamma/(2(gamma+1)))
              ((gamma+1)/gamma - G^(-1/(gamma+1)))

    Always evaluable; results with G^(1/(gamma+1)) < 5 are flagged
    low-confidence since the expansion assumes that quantity is large, and
    so is any ln T > 0, which no probability can reach (huge B).  This is
    evaluate_many's steepest-descent block run on a batch of one.
    """
    res, = _steepest_block([query])
    return res


def _bessel_block(queries):
    """ln_T_bessel_gamma1 of each query, with one shape_constants and one
    log_bessel_k1 call for all of them; every other step is per query, so
    each value is bit-identical however the queries are batched."""
    beta, log_N = shape_constants(1.0)
    heads, ln_common, z = [], [], []
    for query in queries:
        A, B = float(query.A), float(query.B)
        shape = PacketShape(gamma=1.0, B=B, beta=beta, log_N=log_N)
        eta = math.sqrt(2.0 / B)
        z.append(2.0 * math.sqrt(A * eta))
        ln_common.append(log_N - 0.5 * math.log(B) + eta + math.log(2.0)
                         + 0.5 * (math.log(A) - math.log(eta)))
        heads.append(_head("bessel_gamma1", 1.0, *_saddle(A, shape)))
    ln_k1 = log_bessel_k1(np.array(z)).tolist()
    return [TransmissionResult(
                ln_T=min(c + lk, 0.0), **head,
                ln_T_asymptotic=c + log_bessel_k1_asymptotic(zi))
            for head, c, lk, zi in zip(heads, ln_common, ln_k1, z)]


def ln_T_bessel_gamma1(A: float, B: float) -> TransmissionResult:
    """Exact gamma = 1 closed form through the Macdonald function K1.

    With the two-sided exponential density and |y-1| -> y-1 (the mass this
    misweights at y < 1 is killed by exp(-A/y) when A^2 B is not small),

        T1 = (N/sqrt(B)) e^eta * 2 sqrt(xi/eta) K1(2 sqrt(xi eta)),
        xi = A,  eta = sqrt(2/B).

    The corresponding large-argument form of K1 gives the secondary
    diagnostic ln_T_asymptotic.  Requires A >= 10; for A^2 B << 1 the
    replacement overestimates and the (clamped) value loses meaning --
    that regime belongs to the quadrature path.  This is evaluate_many's
    Bessel block run on a batch of one.
    """
    A = require_positive("A", A)
    B = require_positive("B", B)
    if A < BESSEL_MIN_A:
        raise RegimeError(
            f"gamma=1 closed form needs A >= {BESSEL_MIN_A} "
            f"(|y-1| -> y-1 replacement unjustified), got A={A}")
    res, = _bessel_block([BarrierQuery(A, B, 1.0, "bessel_gamma1")])
    return res


def ln_T_from_table(table: DensityTable, A: float) -> TransmissionResult:
    """Log-domain trapezoid average of exp(-A/y) over a tabulated density.

    Raises TableFormatError when no trapezoid term carries density at
    y > 0, since ln T would then be -inf.
    """
    A = require_positive("A", A)
    y = table.y
    d = table.density
    lng = np.full(y.shape, -np.inf)
    mask = (y > 0.0) & (d > 0.0)
    with np.errstate(divide="ignore"):
        lng[mask] = -A / y[mask] + np.log(d[mask])
    dy = np.diff(y)
    terms = np.concatenate([lng[:-1], lng[1:]])
    weights = np.concatenate([0.5 * dy, 0.5 * dy])
    if np.all(terms == -np.inf):
        raise TableFormatError("table has no density at y > 0")
    ln_T = log_sum_exp(terms, weights)
    # an infinite reduced variance fails the plane-wave test, as it should
    _, pw_ok = planewave_validity(A, table.reduced_variance())
    return TransmissionResult(ln_T=float(ln_T), G=None, planewave_ok=pw_ok,
                              method_used="table_trapezoid")


def route(query: BarrierQuery) -> str:
    """The evaluator that evaluate and evaluate_many send a query to.

    An explicit method is used as given.  ``auto`` prefers the exact
    gamma = 1 closed form where its derivation holds (A >= 10 and A^2 B not
    small, so the y < 1 misweighting stays suppressed) and takes quadrature
    everywhere else.
    """
    if query.method != "auto":
        return query.method
    if (query.gamma == 1.0 and query.A >= BESSEL_MIN_A
            and query.A * query.A * query.B >= 8.0):
        return "bessel_gamma1"
    return "quadrature"


def evaluate_many(queries) -> list:
    """Evaluate queries; one result per query, in order.

    A query that fails to converge gets its ConvergenceError in place of a
    result, so one failure costs the batch nothing else.  Quadrature
    queries run through one vectorised engine, 32 queries per call, which
    seeds the panels of all of them in one set of array operations
    (_seed_panels) and refines them as flat (q, coord, a, b) arrays; every
    query gets the seeds and takes the refinement steps it would alone.
    Bessel queries go 32 at a time through one log_bessel_k1 call
    (_bessel_block).  Steepest-descent queries go 1024 at a time through
    one array block (_steepest_block), which evaluates the closed form in
    arrays and solves all their saddles with one _brentq_many call.  So
    each value is bit-identical however the queries are batched or
    ordered.
    """
    queries = list(queries)
    results = [None] * len(queries)
    blocks = {}
    for i, query in enumerate(queries):
        blocks.setdefault(route(query), []).append(i)
    runs = {"bessel_gamma1": (_bessel_block, _BLOCK),
            "quadrature": (_quadrature_block, _BLOCK),
            "steepest_descent": (_steepest_block, _STEEPEST_BLOCK)}
    for method, indices in blocks.items():
        run, size = runs[method]
        for lo in range(0, len(indices), size):
            block = indices[lo:lo + size]
            for i, res in zip(block, run([queries[i] for i in block])):
                results[i] = res
    return results


def evaluate(query: BarrierQuery) -> TransmissionResult:
    """Evaluate one query on the route that route() picks; evaluate_many
    with a batch of one.  Raises ConvergenceError if quadrature fails."""
    res, = evaluate_many([query])
    if isinstance(res, ConvergenceError):
        raise res
    return res
