"""Transmission probability of a momentum packet through a high Coulomb barrier.

Everything is reduced: y = p/p0, A = a/p0 (barrier strength), B = sigma_p/p0^2.
The plane-wave kernel is D(y) = exp(-A/y); the packet-averaged probability is

    T(A, B) = (N/sqrt(B)) Int_0^inf exp[h(y)] dy,
    h(y)    = -A/y - beta (|y-1|^2 / B)^(gamma/2),

evaluated here four ways: log-domain double-exponential quadrature of the
integral to 1e-9 in ln T (the reference path), a steepest-descent closed
form built on the saddle of h, an exact Bessel-K1 form for gamma = 1, and a
log-domain trapezoid rule over user-tabulated densities.  T can be as small
as e^-1000 and the interesting regime has T/e^-A as large as e^+400, so no
code path ever forms T itself -- only ln T.
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
    density_exponent,
    shape_constants,
)
from .specfun import (
    LogMagnitude,
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
# minimum A for the gamma=1 closed form (|y-1| -> y-1 replacement)
BESSEL_MIN_A = 10.0

# double-exponential node tables (see _de_nodes): t = j/128 for |t| <= 4.5.
# Level 0 takes every 16th node, step 1/8; level L adds the odd multiples
# of 16 >> L, step 1/(8 2^L), so each level is the last plus its midpoints
_DE_FINE = 128
_DE_HALF = int(4.5 * _DE_FINE)
_DE_STRIDE = 16
_DE_LEVELS = 4
_DE_COARSE = np.arange(0, 2 * _DE_HALF + 1, _DE_STRIDE)
# node rules; a row of the flat tables per rule
_TANH_SINH, _EXP_SINH = 0, 1
# terms below e^-40 of their query's largest are dropped
_DE_KEEP = 40.0
# the move of ln T between levels at which a query stops
_DE_TARGET = 1e-9
# pieces per query (see _pieces)
_PIECES = 5
# the rounding floor of quad_error_ln, per unit of the magnitudes in ln T
_ROUNDING = 4.0 * 2.0 ** -52
# queries per engine call in evaluate_many; bounds the engine's memory
_BLOCK = 32
# steepest-descent queries per _steepest_block call in evaluate_many
_STEEPEST_BLOCK = 1024
# ln(y* - 1) of the farthest saddle that _saddle_bracket searches for
_SADDLE_FAR = math.log(1e6)
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
        # no check ties B to (A, gamma, method); cli._grid relies on that
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
    t_cap = _SADDLE_FAR  # search window (1, 1 + 1e6) in y
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
    """The exponent h(y) = -A/y - beta (|y-1|^2/B)^(gamma/2); -inf for y <= 0."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        dens = density_exponent(y - 1.0, shape.beta, shape.gamma,
                                0.5 * math.log(shape.B))
        out = np.where(y > 0.0, -A / y - dens, -np.inf)
    if out.ndim == 0:
        return float(out)
    return out


def _de_nodes():
    """x and ln dx/dt at every fine node t of the two rules, one row of
    2 _DE_HALF + 1 nodes per rule in one flat table: tanh-sinh on (0, 1),
    x = 1/(1 + e^(-pi sinh t)), and exp-sinh on (0, inf),
    x = e^((pi/2) sinh t).  See Takahasi & Mori, Publ. RIMS 9 (1974), and
    Bailey, Jeyabalan & Li, Exp. Math. 14 (2005)."""
    t = np.arange(-_DE_HALF, _DE_HALF + 1) / _DE_FINE
    u = np.pi * np.sinh(t)
    ln_cosh = np.log(np.cosh(t))
    x = np.concatenate((1.0 / (1.0 + np.exp(-u)), np.exp(0.5 * u)))
    ln_dx = np.concatenate((
        math.log(math.pi) + ln_cosh - np.log1p(np.exp(-u))
        - np.log1p(np.exp(u)),
        math.log(0.5 * math.pi) + ln_cosh + 0.5 * u))
    return x, ln_dx


_DE_X, _DE_LN_DX = _de_nodes()


def _coordinates(A: float, shape: PacketShape, far: bool):
    """The three coordinates of a query's integral, each as the columns
    (a, s, e, ln c, p, gamma p, k, ln d_max) that _log_terms takes plus
    ln(c p), the log of its Jacobian's constant.

    Right and left of y = 1 the coordinate is q, with y = 1 +- c q^p,
    c = sqrt(B) beta^(-1/gamma) and p = max(1, 1/gamma); the left one
    stops at y = 1/2.  Below y = 1/2 it is d = 1 - y itself (c = p = 1).
    The kernel is -A/y + A, or -A/y itself where the saddle is far
    (y* >= 2) and the mass sits where -A/y is far from -A.
    """
    g = shape.gamma
    p = max(1.0, 1.0 / g)
    ln_beta = math.log(shape.beta)
    half_lnB = 0.5 * math.log(shape.B)
    ln_c = half_lnB - ln_beta / g
    q = (ln_c, p, g if g >= 1.0 else 1.0, 0.0)
    kernel = ((-A, 1.0, 1.0), (A, -1.0, 1.0)) if far else (
        (A, 1.0, -1.0), (-A, -1.0, -1.0))
    return ((kernel[0] + q + (math.inf,), ln_c + math.log(p)),
            (kernel[1] + q + (-_LN2,), ln_c + math.log(p)),
            (kernel[1] + (0.0, 1.0, g, ln_beta - g * half_lnB, 0.0), 0.0))


def _log_terms(x, c, count):
    """ln of exp(h(y) + A) dy/dx, or of exp(h(y)) dy/dx for a far saddle,
    at the points x, the first count[0] of them in the coordinate whose
    columns (see _coordinates) are c[:, 0], the next count[1] in c[:, 1],
    and so on; without the Jacobian's constant, and -inf at and beyond
    the coordinate's end d_max.

    The offset from y = 1 is d = c x^p, and the density exponent is
    exactly x^gamma (gamma >= 1) or x (gamma < 1) in q: the gamma < 1
    cusp at y = 1 becomes linear and dy/dq = c p q^(p-1) has no singular
    power.  The kernel is a/(s + d^e): -A/y + A = A d/(1 + d) right of
    y = 1 and -A d/(1 - d) left of it, which keep their relative precision
    next to y = 1, or -A/(1 +- d).  A column is spread over its points
    only where it is used, and the steps run in place, which keeps a
    block's largest level to a few arrays of its size.
    """
    a, s, e, ln_c, p, gp, k, ln_end = c

    def spread(column):
        return np.repeat(column, count)

    ln_x = np.log(x)
    ln_d = spread(p) * ln_x
    ln_d += spread(ln_c)
    out = spread(e) * ln_d
    np.exp(out, out=out)
    out += spread(s)
    np.divide(spread(a), out, out=out)
    tmp = spread(gp) * ln_x
    tmp += spread(k)
    out -= np.exp(tmp, out=tmp)
    tmp = spread(p)
    tmp -= 1.0
    tmp *= ln_x
    out += tmp
    out[~(ln_d < spread(ln_end))] = -np.inf
    return out


def _pieces(A: float, shape: PacketShape, ln_d):
    """The offset of the kernel (A, or 0 for a far saddle; see
    _coordinates) and the _PIECES rows (rule, coordinate columns, ln
    weight, start, length) of one query's integral; ln_d is ln(y* - 1) of
    its saddle y*, or None where it has none above y = 1.

    A piece maps the nodes x of its rule to start + length x.  In q right
    of y = 1: tanh-sinh on (0, q*); for gamma >= 1 with q* < 1, tanh-sinh
    on (q*, 1), the wall where the density exponent q^gamma turns up; and
    an exp-sinh tail, from q* with the curvature width of h at y* as its
    scale (at least p - 1, as the Jacobian q^(p-1) moves the peak of a
    wide gamma < 1 packet out to there), from the wall at 1 with scale
    1/gamma, or from 0 with scale 1 where there is no saddle.  Left of y = 1: q up to y = 1/2, by
    tanh-sinh, or by exp-sinh with scale 1 cut at y = 1/2 where the
    density exponent there exceeds 700.  Then tanh-sinh in y on (0, 1/2),
    where exp(-A/y) switches on, its nodes taken as d = 1 - y from 1 down.
    An empty piece has length 0 and start 1.
    """
    far = ln_d is not None and ln_d >= 0.0
    (right, ln_cp), (left, _), (low, _) = _coordinates(A, shape, far)
    g, ln_c, p = shape.gamma, right[3], right[4]
    q_star = 0.0
    tail = (0.0, 1.0)
    if ln_d is not None:
        ln_q = (ln_d - ln_c) / p
        q_star = math.exp(ln_q)
        # -h''(y*) (y* - 1)^2 = A r (1 - r) (2 r + gamma - 1) with
        # r = (y* - 1)/y*, by the saddle equation; its 1/sqrt, the
        # curvature width, is carried into q by dq/dy = q/(p (y* - 1))
        r = 1.0 / (1.0 + math.exp(-ln_d))
        curv = 2.0 * r + g - 1.0
        if curv > 0.0:
            ln_K = (math.log(A) + math.log(r) - math.log1p(math.exp(ln_d))
                    + math.log(curv))
            tail = (q_star, max(math.exp(ln_q - math.log(p) - 0.5 * ln_K),
                                p - 1.0))
        else:
            tail = (q_star, max(q_star, p - 1.0))
    wall = 1.0 - q_star if g >= 1.0 and q_star < 1.0 else 0.0
    if wall:
        tail = (1.0, 1.0 / g)
    ln_half = -_LN2 - ln_c  # q^p at y = 1/2
    if g * ln_half > math.log(700.0):
        near = (_EXP_SINH, 1.0)
    else:
        near = (_TANH_SINH, math.exp(ln_half / p))
    spans = [(_TANH_SINH, right, 0.0, q_star),
             (_TANH_SINH, right, q_star, wall),
             (_EXP_SINH, right) + tail,
             (near[0], left, 0.0, near[1]),
             (_TANH_SINH, low, 1.0, -0.5)]
    return 0.0 if far else A, [
        (rule, *cols, math.log(abs(length)) + (0.0 if cols is low else ln_cp),
         start, length) if length else (rule, *cols, -math.inf, 1.0, 0.0)
        for rule, cols, start, length in spans]


def _node_terms(cols, pieces, count, node):
    """ln of the terms, without the step, of count[i] nodes of each piece
    pieces[i] (see _de_quadrature), in that order; node is each term's
    index into the flat node tables."""
    c = cols[:, pieces]
    x = np.repeat(c[10], count)
    x *= _DE_X[node]
    x += np.repeat(c[9], count)
    out = np.repeat(c[8], count)
    out += _DE_LN_DX[node]
    out += _log_terms(x, c[:8], count)
    return out


def _de_quadrature(rows):
    """ln of the integrals of a block of queries by one nested
    double-exponential rule; _PIECES rows per query, as _pieces makes them.

    Level 0 evaluates every piece at its nodes of step 1/8 and keeps, per
    piece, the nodes from the first to the last whose term exceeds
    e^-_DE_KEEP of its query's largest, and one more on each side.  Each
    later level halves the step: it evaluates only the new midpoints inside
    those spans, for the queries still running, in one array pass.  A
    query stops at the first level whose ln integral moves by at most
    _DE_TARGET from the last, and after _DE_LEVELS levels at the latest.
    Its sums are bincounts over its own nodes in order, so its bits do not
    depend on what else is in the block.  The caller holds the np.errstate
    that silences the -inf and overflow of nodes far out on a tail.

    Returns per query the ln integral, its last move and whether that
    reached _DE_TARGET.
    """
    # each piece's row of the node tables
    base = rows[:, 0].astype(np.intp) * (2 * _DE_HALF + 1)
    cols = np.ascontiguousarray(rows[:, 1:].T)
    n_piece = len(rows)
    nq = n_piece // _PIECES
    width = _DE_COARSE.size
    terms = np.full((n_piece, width), -np.inf)
    live = np.flatnonzero(cols[10])
    terms[live] = _node_terms(
        cols, live, width,
        (base[live, None] + _DE_COARSE).ravel()).reshape(live.size, width)
    peak = terms.reshape(nq, -1).max(axis=1)
    keep = terms > np.repeat(peak - _DE_KEEP, _PIECES)[:, None]
    used = keep.any(axis=1)
    first = np.maximum(keep.argmax(axis=1) - 1, 0)
    last = np.minimum(width - keep[:, ::-1].argmax(axis=1), width - 1)
    span = np.where(used, last - first, 0)
    node = np.arange(width)
    inside = (node >= first[:, None]) & (node <= last[:, None]) & used[:, None]
    scaled = np.where(
        inside, np.exp(terms - np.repeat(peak, _PIECES)[:, None]), 0.0)
    owner = np.arange(n_piece) // _PIECES
    total = np.bincount(np.repeat(owner, width), scaled.ravel(), nq)
    # free level 0's arrays before the larger ones of the later levels
    del terms, keep, inside, scaled

    base += first * _DE_STRIDE
    move = np.full(nq, np.inf)
    level = np.zeros(nq, dtype=np.intp)
    run = np.arange(nq)
    for lev in range(1, _DE_LEVELS + 1):
        pieces = (run[:, None] * _PIECES + np.arange(_PIECES)).ravel()
        count = span[pieces] << (lev - 1)
        # the k-th new node of a piece sits at base + stride (2k + 1)
        stride = _DE_STRIDE >> lev
        before = np.cumsum(count) - count
        node = (2 * stride * np.arange(before[-1] + count[-1])
                + np.repeat(base[pieces] + stride * (1 - 2 * before), count))
        q = np.repeat(owner[pieces], count)
        new = np.bincount(
            q, np.exp(_node_terms(cols, pieces, count, node) - peak[q]),
            nq)[run]
        prev = total[run]
        move[run] = np.abs(np.log1p((new - prev) / (2.0 * prev)))
        total[run] = prev + new
        level[run] = lev
        run = run[move[run] > _DE_TARGET]
        if not run.size:
            break
    # the step of the last level is 2^-(3 + level)
    ln_I = peak + np.log(np.ldexp(total, -3 - level))
    return ln_I, move, move <= _DE_TARGET


def _saddle_offset(A: float, shape: PacketShape, head):
    """ln(y* - 1) of a query's saddle for _pieces, or None where it has
    none above y = 1.  Where Brent's method gave none because the saddle
    lies beyond y = 1 + 1e6, or G overflows, it is the large-G asymptote
    ln G/(gamma + 1), taken from logs."""
    if head["y_star_numeric"] is not None:
        return math.log(head["y_star_numeric"] - 1.0)
    g = shape.gamma
    ln_G = (math.log(A) + 0.5 * g * math.log(shape.B)
            - math.log(g * shape.beta))
    if ln_G > (g + 1.0) * _SADDLE_FAR:
        return ln_G / (g + 1.0)
    return None


def _quadrature_block(queries):
    """ln_T_quadrature of each query, with one engine call for all of them;
    a ConvergenceError stands in for the result of a query that fails."""
    heads, rows = [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for query in queries:
            shape = PacketShape.from_gamma(query.gamma, query.B)
            A = float(query.A)
            head = _head("quadrature", shape.gamma, *_saddle(A, shape))
            offset, pieces = _pieces(A, shape, _saddle_offset(A, shape, head))
            heads.append((query, shape, head, offset))
            rows.extend(pieces)
        ln_I, move, ok = _de_quadrature(np.array(rows))
    results = []
    for (query, shape, head, offset), ln_Ii, move_i, ok_i in zip(
            heads, ln_I.tolist(), move.tolist(), ok.tolist()):
        ln_scale = shape.log_N - 0.5 * math.log(shape.B)
        ln_T = ln_scale - offset + ln_Ii
        # the last move plus a rounding floor: a few ulp of every magnitude
        # summed into ln T
        err_i = move_i + _ROUNDING * (abs(ln_T) + offset + abs(ln_Ii)
                                      + abs(ln_scale))
        where = f"A={float(query.A)}, B={query.B}, gamma={query.gamma}"
        if not ok_i:
            results.append(ConvergenceError(
                f"quadrature failed to reach {_DE_TARGET:g} (got {err_i:.2e}) "
                f"for {where}", ln_T=ln_T, quad_error_ln=err_i))
        elif ln_T > err_i:
            results.append(ConvergenceError(
                f"quadrature gave ln T = {ln_T!r} > 0 beyond its error "
                f"{err_i:.2e} for {where}", ln_T=ln_T, quad_error_ln=err_i))
        else:
            results.append(TransmissionResult(ln_T=ln_T, quad_error_ln=err_i,
                                              **head))
    return results


def ln_T_quadrature(query: BarrierQuery) -> TransmissionResult:
    """Packet-averaged ln T by double-exponential quadrature.

    The integral is split at y = 1/2, at the y = 1 cusp, at the saddle y*
    and, for gamma >= 1, at the density wall, into five pieces (_pieces),
    each a tanh-sinh or exp-sinh rule whose step is halved until ln T moves
    by at most 1e-9.  quad_error_ln is that last move plus a rounding
    floor.  This is evaluate_many's quadrature engine run on a batch of
    one.
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
    queries run through one double-exponential engine, 32 queries per call
    (_de_quadrature): each level of all of them is one array pass, and
    every query sums its own nodes and stops at the level it would alone.
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
