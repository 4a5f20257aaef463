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

Queries are evaluated as columns (_evaluate_columns), one array block per
route (_routes); evaluate and evaluate_many, the one way to ask for ln T,
are its view as result objects.  Every saddle y* is solved one query at a
time by saddle_point_numeric, by Newton's method, through _saddle.  The
same quadrature engine gives the packet density's central moments
(central_moment), with A = 0, which confirm its normalisation and variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    RangeError,
    TableFormatError,
    require_positive,
)
from .packet import (
    GAMMA_MAX,
    GAMMA_MIN,
    DensityTable,
    PacketShape,
    shape_constants,
)
from .specfun import (
    log_bessel_k1,
    log_bessel_k1_asymptotic,
    log_sum_exp,
)

__all__ = [
    "BarrierQuery",
    "TransmissionResult",
    "planewave_validity",
    "saddle_point_numeric",
    "saddle_point_approx",
    "ln_T_from_table",
    "central_moment",
    "evaluate",
    "evaluate_many",
    "route",
]

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
# the density exponent at y = 1/2 beyond which the piece left of y = 1 is
# exp-sinh (see _pieces)
_LN700 = math.log(700.0)

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
_DE_COARSE = np.arange(0, 2 * _DE_HALF + 1, _DE_STRIDE)
# node rules, as the offset of each one's row in the flat tables
_TANH_SINH, _EXP_SINH = 0, 2 * _DE_HALF + 1
# terms below e^-40 of their query's largest are dropped
_DE_KEEP = 40.0
# the move of ln T between levels at which a query stops, unless its
# rounding floor is larger
_DE_TARGET = 1e-9
# pieces per query (see _pieces), and the (ln weight, start, length,
# rule) of the last, tanh-sinh on y in (0, 1/2) as d = 1 - y from 1 down
_PIECES = 5
_LOW_PIECE = (math.log(0.5), 1.0, -0.5, _TANH_SINH)
# the rounding floor of quad_error_ln, per unit of the magnitudes in ln T
_ROUNDING = 4.0 * 2.0 ** -52
# queries that evaluate_many and the CLI's sweep and ratio evaluate at a
# time, as one block per route; bounds the memory of every route
CHUNK = 1024
# queries per quadrature engine call; bounds the engine's memory, which
# holds every column of a pass spread over its nodes.  On the 1600-point
# grid the engine's tracemalloc peak is 1.46 MB at 16 and 2.26 MB at 32,
# which run the 200-point sweeps of one gamma 8% faster
_BLOCK = 16
# ln(y* - 1) beyond which a row whose saddle is not solved (G overflows)
# takes the large-G asymptote (see _pieces)
_SADDLE_FAR = math.log(1e6)
# Newton steps after which the saddle solve gives up, and the step, per
# unit of max(1, |t|), after which it stops
_SADDLE_STEPS = 100
_SADDLE_EPS = 2.0 ** -52
# the routes, as method_used names them, in METHODS order
_ROUTES = np.array(METHODS[:3])
_QUADRATURE, _STEEPEST, _BESSEL, _AUTO = range(len(METHODS))


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


def _saddle_shifted(t: float, lnG: float,
                    gamma: float) -> tuple[float, float]:
    """The saddle equation in t = ln(y-1), lnG - 2 ln(1+e^t) - (gamma-1) t,
    and its slope -2 sigma(t) - (gamma-1), both from one e^(-|t|); the
    first with ln(1+e^t) computed as np.logaddexp(0.0, t) does, in its
    branches and operand order, on floats."""
    if t == 0.0:
        return lnG - 2.0 * _LN2 - (gamma - 1.0) * t, -gamma
    w = math.exp(-abs(t))
    if t > 0.0:
        return (lnG - 2.0 * (t + math.log1p(w)) - (gamma - 1.0) * t,
                -2.0 / (1.0 + w) - (gamma - 1.0))
    return (lnG - 2.0 * math.log1p(w) - (gamma - 1.0) * t,
            -2.0 * w / (1.0 + w) - (gamma - 1.0))


def saddle_point_numeric(G: float, gamma: float) -> float:
    """The stationary point y* > 1 of the integrand exponent.

    Solves G/y^2 = (y-1)^(gamma-1) in t = ln(y-1) by Newton's method from
    a point right of the root: ln G/(gamma+1), or ln G/(gamma-1) where
    G < 1, as 2 ln(1+e^t) >= max(0, 2t).  Right of the critical point t_c
    of gamma < 1, and everywhere for gamma > 1, the residual is concave
    and decreasing, so every step stays right of the root and decreases t.
    The solve stops at the first step that does not, or after one that
    moves t by at most _SADDLE_EPS max(1, |t|), which leaves y within
    rounding of the root.  For gamma < 1 the upper branch, the local
    maximum of h, exists only where the residual is positive at t_c.  For
    gamma = 1 the root is sqrt(G) in closed form.  Raises ConvergenceError
    where there is no stationary point, where it rounds to y = 1, or after
    _SADDLE_STEPS steps.
    """
    G = require_positive("G", G)
    gamma = require_positive("gamma", gamma)
    if gamma == 1.0:
        return math.sqrt(G)
    lnG = math.log(G)
    if gamma < 1.0:
        t_c = math.log((1.0 - gamma) / (1.0 + gamma))
        if _saddle_shifted(t_c, lnG, gamma)[0] <= 0.0:
            raise ConvergenceError(
                f"integrand exponent has no stationary point on (1, inf) "
                f"for G={G}, gamma={gamma}")
    # the residual is at most ln G - max(0, 2t) - (gamma-1) t, 0 here; ln G
    # > 0 wherever gamma < 1 has a root, as the residual at t_c < 0 is
    # below ln G
    t = lnG / (gamma + 1.0 if lnG >= 0.0 else gamma - 1.0)
    for _ in range(_SADDLE_STEPS):
        f, slope = _saddle_shifted(t, lnG, gamma)
        step = f / slope
        if not step > 0.0:
            break
        t -= step
        # next to a root at t = 0 the rounded residual would crawl there
        # geometrically, as its ln(1 + e^t) rounds to ln 2
        if step <= _SADDLE_EPS * max(1.0, abs(t)):
            break
    else:
        raise ConvergenceError(f"saddle point not settled in {_SADDLE_STEPS} "
                               f"Newton steps (G={G}, gamma={gamma})")
    y_star = 1.0 + math.exp(t)
    if y_star <= 1.0:
        raise ConvergenceError(
            f"saddle point indistinguishable from 1 (G={G}, gamma={gamma})")
    return y_star


def saddle_point_approx(G: float, gamma: float) -> float:
    """Large-G approximation y* ~= G^(1/(gamma+1)) + (gamma-1)/(gamma+1)."""
    G = require_positive("G", G)
    gamma = require_positive("gamma", gamma)
    return G ** (1.0 / (gamma + 1.0)) + (gamma - 1.0) / (gamma + 1.0)


def _saddle(A: float, B: float, gamma: float,
            beta: float) -> tuple[float, float]:
    """G of one row by _G, and its stationary point y* by
    saddle_point_numeric, nan where G is 0 or inf or the solve raises
    ConvergenceError."""
    G = _G(A, B, gamma, beta)
    if 0.0 < G < math.inf:
        try:
            return G, saddle_point_numeric(G, gamma)
        except ConvergenceError:
            pass
    return G, math.nan


def _shape_consts(gamma: float):
    """The constants of a gamma that every row of it shares: beta and
    ln N (shape_constants), ln beta, and the power p = max(1, 1/gamma) of
    the engine's coordinate q (_coordinates) with ln p."""
    beta, log_N = shape_constants(gamma)
    p = max(1.0, 1.0 / gamma)
    return beta, log_N, math.log(beta), p, math.log(p)


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


# the levels of each refinement pass: 1 and 2 together, as most need both
_DE_PASSES = [(levels, np.array(levels) - 1, _DE_STRIDE >> np.array(levels))
              for levels in ((1, 2), (3,), (4,))]


def _coordinates(A: float, gamma: float, half_lnB: float, const, far: bool):
    """The three coordinates of the integral of a query of packet shape
    gamma, with const = _shape_consts(gamma), and (1/2) ln B = half_lnB,
    each as the columns (a, s, e, ln c, p, gamma p, k, ln d_max, p - 1)
    that _log_terms takes plus ln(c p), the log of its Jacobian's constant.

    Right and left of y = 1 the coordinate is q, with y = 1 +- c q^p,
    c = sqrt(B) beta^(-1/gamma) and p = max(1, 1/gamma); the left one
    stops at y = 1/2.  Below y = 1/2 it is d = 1 - y itself (c = p = 1).
    The kernel is -A/y + A, or -A/y itself where the saddle is far
    (y* >= 2) and the mass sits where -A/y is far from -A.
    """
    g = gamma
    _, _, ln_beta, p, ln_p = const
    ln_c = half_lnB - ln_beta / g
    q = (ln_c, p, g if g >= 1.0 else 1.0, 0.0)
    kernel = ((-A, 1.0, 1.0), (A, -1.0, 1.0)) if far else (
        (A, 1.0, -1.0), (-A, -1.0, -1.0))
    return ((kernel[0] + q + (math.inf, p - 1.0), ln_c + ln_p),
            (kernel[1] + q + (-_LN2, p - 1.0), ln_c + ln_p),
            (kernel[1] + (0.0, 1.0, g, ln_beta - g * half_lnB, 0.0, 0.0), 0.0))


def _log_terms(x, c):
    """ln of exp(h(y) + A) dy/dx, or of exp(h(y)) dy/dx for a far saddle,
    at the points x, each in the coordinate whose columns (see
    _coordinates) c holds spread over the points, one row per column;
    without the Jacobian's constant, and -inf at and beyond the
    coordinate's end d_max.

    The offset from y = 1 is d = c x^p, and the density exponent is
    exactly x^gamma (gamma >= 1) or x (gamma < 1) in q: the gamma < 1
    cusp at y = 1 becomes linear and dy/dq = c p q^(p-1) has no singular
    power.  The kernel is a/(s + d^e): -A/y + A = A d/(1 + d) right of
    y = 1 and -A d/(1 - d) left of it, which keep their relative precision
    next to y = 1, or -A/(1 +- d).  The steps run in place, overwriting x
    and c, so a level allocates no array of its size beyond those: fresh
    pages cost more than the arithmetic.
    """
    a, s, e, ln_c, p, gp, k, ln_end, p1 = c
    ln_x = np.log(x, out=x)
    # the density exponent exp(gamma p ln x + k), in gp's row
    gp *= ln_x
    gp += k
    np.exp(gp, out=gp)
    ln_d = np.multiply(p, ln_x, out=k)
    ln_d += ln_c
    cut = ln_d >= ln_end
    # the kernel, in e's row
    e *= ln_d
    np.exp(e, out=e)
    e += s
    np.divide(a, e, out=e)
    e -= gp
    # the Jacobian's power, (p - 1) ln x
    p1 *= ln_x
    e += p1
    e[cut] = -np.inf
    return e


def _pieces(A: float, gamma: float, half_lnB: float, const, y_star: float,
            rows: list) -> float:
    """The offset of the kernel (A, or 0 for a far saddle; see
    _coordinates), returned, and the _PIECES rows (coordinate columns, ln
    weight, start, length, rule), appended flat to rows, of the integral
    of a query of packet shape gamma (const = _shape_consts(gamma)) and
    (1/2) ln B = half_lnB around its stationary point y_star from _saddle
    (nan where none).  Where there is none because G overflows, the saddle
    is at the large-G asymptote ln(y* - 1) = ln G/(gamma + 1), taken from
    logs, when that lies beyond y = 1 + 1e6.

    A piece maps the nodes x of its rule to start + length x.  In q right
    of y = 1: tanh-sinh on (0, q*); for gamma >= 1 with q* < 1, tanh-sinh
    on (q*, 1), the wall where the density exponent q^gamma turns up; and
    an exp-sinh tail, from q* with the curvature width of h at y* as its
    scale (at least p - 1, as the Jacobian q^(p-1) moves the peak of a
    wide gamma < 1 packet out to there), from the wall at 1 with scale
    1/gamma, or from 0 with scale 1 where there is no saddle.  Left of
    y = 1: q up to y = 1/2, by tanh-sinh, or by exp-sinh with scale 1 cut
    at y = 1/2 where the density exponent there exceeds 700.  Then
    tanh-sinh in y on (0, 1/2), where exp(-A/y) switches on, its nodes
    taken as d = 1 - y from 1 down (_LOW_PIECE).  An empty piece has
    length 0 and start 1.
    """
    # ln(y* - 1), or None where there is no saddle above y = 1
    ln_d = None
    if y_star > 1.0:
        ln_d = math.log(y_star - 1.0)
    else:
        ln_G = math.log(A) + gamma * half_lnB - math.log(gamma * const[0])
        if ln_G > (gamma + 1.0) * _SADDLE_FAR:
            ln_d = ln_G / (gamma + 1.0)
    far = ln_d is not None and ln_d >= 0.0
    (right, ln_cp), (left, _), (low, _) = _coordinates(A, gamma, half_lnB,
                                                       const, far)
    g, ln_c, p, ln_p = gamma, right[3], right[4], const[4]
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
            tail = (q_star, max(math.exp(ln_q - ln_p - 0.5 * ln_K), p - 1.0))
        else:
            tail = (q_star, max(q_star, p - 1.0))
    wall = 1.0 - q_star if g >= 1.0 and q_star < 1.0 else 0.0
    if wall:
        tail = (1.0, 1.0 / g)
    ln_half = -_LN2 - ln_c  # q^p at y = 1/2
    if g * ln_half > _LN700:
        near = (_EXP_SINH, 1.0)
    else:
        near = (_TANH_SINH, math.exp(ln_half / p))
    for rule, cols, start, length in ((_TANH_SINH, right, 0.0, q_star),
                                      (_TANH_SINH, right, q_star, wall),
                                      (_EXP_SINH, right) + tail,
                                      (near[0], left, 0.0, near[1])):
        rows += cols
        rows += ((math.log(length) + ln_cp, start, length, rule) if length
                 else (-math.inf, 1.0, 0.0, rule))
    rows += low
    rows += _LOW_PIECE
    return 0.0 if far else A


def _node_terms(cols, pieces, count, node):
    """ln of the terms, without the step, of count[i] nodes of each piece
    pieces[i] (see _de_quadrature), in that order (count nodes each where
    count is a number); node is each one's index into the node tables."""
    # every column but the rule spread over the nodes, a row each
    c = cols[:-1, pieces].repeat(count, axis=1)
    x = c[11]
    x *= _DE_X[node]
    x += c[10]
    # the log term, then ln w + ln dx/dt, in a new array: c is freed on return
    out = _log_terms(x, c[:9])
    return np.add(out, np.add(c[9], _DE_LN_DX[node], out=c[9]))


def _de_quadrature(cols, ln_scale, offset):
    """ln of the integrals of a block of queries by one nested
    double-exponential rule; cols holds the _PIECES rows per query that
    _pieces makes, as columns, and ln_scale and offset list per query what
    turns its ln integral into ln T (see _rounding_floor).  central_moment
    passes one query of its own rows, whose ln T is the log of the moment.

    Level 0 evaluates every piece at its nodes of step 1/8 and keeps, per
    piece, the nodes from the first to the last whose term exceeds
    e^-_DE_KEEP of its query's largest, and one more on each side within
    the node table: its span, found from the first and the last such node
    (argmax on the piece's row and on it reversed), and empty where it has
    none.  Level 0's sum is over the nodes of those spans alone.  Each
    later level halves the step: it adds the midpoints inside those spans,
    for the queries still running; levels 1 and 2 take one array pass,
    then 3 and 4 one each (_DE_PASSES).  A query stops at the first level
    whose ln integral moves by at most _DE_TARGET from the last, or by at
    most its rounding floor where that is larger (taken at level 0), and
    after level 4 at the latest; one that stops at level 1 drops the level
    2 terms of its pass.  Each level's sum, level 0's too, is a bincount
    over the query's own nodes of that level in order, piece by piece, so
    its bits depend neither on what else is in the block nor on the pass.
    The caller holds the np.errstate that silences the -inf and overflow
    of nodes far out on a tail.

    Returns per query the ln integral, its last move and whether that
    reached the query's stop.
    """
    n_piece = cols.shape[1]
    nq = n_piece // _PIECES
    width = _DE_COARSE.size
    base = cols[12].astype(np.intp)
    live = cols[11].nonzero()[0]
    terms = np.empty((n_piece, width))
    terms.fill(-np.inf)
    terms[live] = _node_terms(
        cols, live, width,
        (base[live, None] + _DE_COARSE).ravel()).reshape(live.size, width)
    peak = terms.reshape(nq, -1).max(axis=1)
    keep = terms > (peak - _DE_KEEP).repeat(_PIECES)[:, None]
    # each piece's span, the coarse steps from the node before its first
    # kept node to the one after its last, within the table; none where
    # it keeps no node
    first = keep.argmax(axis=1)
    start = np.maximum(first - 1, 0)
    span = np.minimum(width - keep[:, ::-1].argmax(axis=1), width - 1)
    span -= start
    span *= keep[np.arange(n_piece), first]
    base += _DE_STRIDE * start
    # level 0's sum over the nodes at the ends of those steps, piece by
    # piece, as the later levels sum theirs
    count = span + (span > 0)
    before = count.cumsum()
    before -= count
    node = np.arange(before[-1] + count[-1])
    node += (start - before + width * np.arange(n_piece)).repeat(count)
    q = node // (width * _PIECES)
    scaled = terms.ravel()[node]
    scaled -= peak[q]
    np.exp(scaled, out=scaled)
    total = np.bincount(q, scaled, nq)
    # free level 0's arrays before the larger ones of the later levels
    del terms, keep, node, q, scaled
    # each query's stop: _DE_TARGET, or the rounding floor at level 0's ln
    # integral where that is larger
    stop = np.array([max(_DE_TARGET, _rounding_floor(*v)) for v in zip(
        (peak + np.log(np.ldexp(total, -3))).tolist(), ln_scale, offset)])

    move, level = np.empty(nq), np.empty(nq, dtype=np.intp)  # set by level 1
    run = np.arange(nq)
    piece_of = np.arange(n_piece).reshape(nq, _PIECES)
    for levels, shifts, strides in _DE_PASSES:
        if not run.size:
            break
        # the running pieces once per level of the pass, and each level's
        # new nodes after the last one's; the k-th new node of a piece sits
        # at base + stride (2k + 1)
        pieces = piece_of[run].ravel()
        n_run = pieces.size
        pieces = np.concatenate([pieces] * len(levels))
        count = span[pieces] << shifts.repeat(n_run)
        stride = strides.repeat(n_run)
        before = count.cumsum()
        ends = before[n_run - 1::n_run].tolist()
        before -= count
        node = np.arange(ends[-1]) * (2 * stride).repeat(count)
        node += (base[pieces] + stride - 2 * stride * before).repeat(count)
        terms = _node_terms(cols, pieces, count, node)
        q = (pieces // _PIECES).repeat(count)
        terms -= peak[q]
        np.exp(terms, out=terms)
        for lev, lo, hi in zip(levels, [0] + ends, ends):
            new = np.bincount(q[lo:hi], terms[lo:hi], nq)[run]
            prev = total[run]
            moved = np.abs(np.log1p((new - prev) / (2.0 * prev)))
            move[run] = moved
            total[run] = prev + new
            level[run] = lev
            run = run[moved > stop[run]]
    # the step of the last level is 2^-(3 + level)
    ln_I = peak + np.log(np.ldexp(total, -3 - level))
    return ln_I, move, move <= stop


def _rounding_floor(ln_I, ln_scale, offset):
    """The rounding floor of quad_error_ln: _ROUNDING per unit of every
    magnitude summed into ln T = ln_scale - offset + ln_I."""
    return _ROUNDING * (abs(ln_scale - offset + ln_I) + offset + abs(ln_I)
                        + abs(ln_scale))


def central_moment(shape: PacketShape, k: int) -> float:
    """k-th central moment <(y-1)^k> of the packet density, k in {0,1,2,4}.

    Twice the integral over u = y - 1 > 0, by the DE engine (_de_quadrature)
    as one exp-sinh piece in q (_coordinates) from q = 0 with scale 1 and no
    kernel (A = 0).  As u^k du = c^(k+1) p q^(p(k+1)-1) dq, order k raises
    the Jacobian's power to p(k+1) - 1 and adds k ln c to the piece's ln
    weight.  beta and ln N come from shape, so a perturbed constant shows.
    The rule stops at a move of 1e-9 in the log of the moment, or at its
    rounding floor; odd moments vanish by the exact y -> 2-y symmetry of
    the density.  Raises ConvergenceError where the rule does not reach
    its stop or the moment leaves the double range.
    """
    if k not in (0, 1, 2, 4):
        raise DomainError(f"central moment order k={k!r} not supported")
    if k == 1:
        return 0.0
    g = shape.gamma
    p = max(1.0, 1.0 / g)
    half_lnB = 0.5 * math.log(shape.B)
    (right, ln_cp), _, _ = _coordinates(
        0.0, g, half_lnB,
        (shape.beta, shape.log_N, math.log(shape.beta), p, math.log(p)), False)
    cols = right[:-1] + (p * (k + 1) - 1.0,)
    pieces = [cols + (ln_cp + k * right[3], 0.0, 1.0, _EXP_SINH)]
    pieces += [cols + (-math.inf, 1.0, 0.0, _EXP_SINH)] * (_PIECES - 1)
    ln_scale = shape.log_N - half_lnB
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (ln_I,), (move,), (ok,) = _de_quadrature(np.array(pieces).T,
                                                  [ln_scale], [0.0])
        moment = 2.0 * float(np.exp(ln_scale + ln_I))
    if not (ok and moment < math.inf):
        raise ConvergenceError(
            f"central moment k={k} at gamma={g}, B={shape.B} gave {moment!r}"
            f" (last move {move:.2e}): it did not reach its stop or leaves "
            f"the double range")
    return moment


def _quadrature_block(A, B, gamma, consts):
    """Quadrature ln T of each row, the engine run on _BLOCK rows at a time.

    Every row is set up on its own, in one pass: G and its stationary
    point y* (_saddle), and its pieces around y* (_pieces), from
    consts[gamma] = _shape_consts(gamma).  Returns the columns ln_T,
    quad_error_ln, G and y* (nan where there is none), as lists, and the
    failures, {row: message}; a failed row's ln_T and quad_error_ln are
    its partial estimate, and the estimate is inf where nothing finite is
    known.
    """
    n = len(A)
    coords = A.tolist(), B.tolist(), gamma.tolist()
    G, y_star, offset, ln_scale, rows = [], [], [], [], []
    for a, b, g in zip(*coords):
        const = consts[g]
        Gi, y = _saddle(a, b, g, const[0])
        half_lnB = 0.5 * math.log(b)
        offset.append(_pieces(a, g, half_lnB, const, y, rows))
        G.append(Gi)
        y_star.append(y)
        ln_scale.append(const[1] - half_lnB)
    cols = np.fromiter(rows, float, len(rows)).reshape(n * _PIECES, -1).T
    ln_I, move, ok = [], [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = lo + _BLOCK
            for column, v in zip((ln_I, move, ok), _de_quadrature(
                    cols[:, lo * _PIECES:hi * _PIECES], ln_scale[lo:hi],
                    offset[lo:hi])):
                column += v.tolist()
    ln_T, err, failures = [], [], {}
    for i, (a, b, g, ln_Ii, move_i, ok_i, ln_s, off) in enumerate(zip(
            *coords, ln_I, move, ok, ln_scale, offset)):
        ln_Ti = ln_s - off + ln_Ii
        # the last move plus the rounding floor; inf where it is not known
        err_i = move_i + _rounding_floor(ln_Ii, ln_s, off)
        if math.isnan(err_i):
            err_i = math.inf
        ln_T.append(ln_Ti)
        err.append(err_i)
        if not (ok_i and err_i < math.inf):
            failures[i] = (f"quadrature failed to reach {_DE_TARGET:g} or "
                           f"its rounding floor (got {err_i:.2e}) "
                           f"for A={a}, B={b}, gamma={g}")
        elif ln_Ti > err_i:
            failures[i] = (f"quadrature gave ln T = {ln_Ti!r} > 0 beyond its "
                           f"error {err_i:.2e} for A={a}, B={b}, gamma={g}")
    return ln_T, err, G, y_star, failures


def _steepest_block(A, B, gamma, consts):
    """The steepest-descent (Laplace) closed form of each row, and its
    low_confidence, in arrays:

    ln T* = ln N + (1/2) ln(2 pi/(gamma+1)) - 3/(2(gamma+1)) ln(gamma beta)
            + (gamma-2)/(4(gamma+1)) ln(B/A^2)
            - (gamma beta)^(1/(gamma+1)) (A^2/B)^(gamma/(2(gamma+1)))
              ((gamma+1)/gamma - G^(-1/(gamma+1)))

    Rows with G^(1/(gamma+1)) < 5 are flagged low-confidence since the
    expansion assumes that quantity is large, and so is any ln T > 0, which
    no probability can reach (huge B).  A row whose ln T leaves the double
    range (G underflows to 0, or A^2/B overflows) is a failure that carries
    its value: the third column, {row: message}.

    What numpy's array functions may round differently from math stays
    in math: the logarithms of A and B, per row, and of each gamma's
    constants, from consts[gamma] = (beta, ln N).  So each value is
    bit-identical to the row's own evaluation, however the rows are
    batched.  No saddle is solved: the closed form needs only G.
    """
    keys = sorted(consts)
    table = np.array([(consts[g][1], math.log(g * consts[g][0]),
                       math.log(2.0 * math.pi / (g + 1.0))) for g in keys])
    log_N, ln_gb, ln_2pi = table[np.searchsorted(keys, gamma)].T
    lnA = np.array([math.log(a) for a in A.tolist()])
    lnB = np.array([math.log(b) for b in B.tolist()])
    g = gamma
    gp1 = g + 1.0
    lnG = lnA + 0.5 * g * lnB - ln_gb
    ln_pref = (log_N + 0.5 * ln_2pi - 1.5 / gp1 * ln_gb
               + 0.25 * (g - 2.0) / gp1 * (lnB - 2.0 * lnA))
    with np.errstate(over="ignore", invalid="ignore"):
        big = np.exp(ln_gb / gp1 + 0.5 * g / gp1 * (2.0 * lnA - lnB))
        correction = gp1 / g - np.exp(-lnG / gp1)
        ln_T = ln_pref - big * correction
        low = (np.exp(lnG / gp1) < LOW_CONFIDENCE_THRESHOLD) | (ln_T > 0.0)
    failures = {i: f"steepest_descent gave ln T = {float(ln_T[i])!r} for A="
                f"{float(A[i])}, B={float(B[i])}, gamma={float(gamma[i])}: its"
                f" closed form leaves the double range"
                for i in np.flatnonzero(~np.isfinite(ln_T)).tolist()}
    return ln_T, low, failures


def _bessel_terms(A, B, log_N):
    """(ln of the prefactor, argument z of K1) of the exact gamma = 1
    closed form at each row, as arrays; log_N is ln N at gamma = 1.

    With the two-sided exponential density and |y-1| -> y-1 (the mass this
    misweights at y < 1 is killed by exp(-A/y) when A^2 B is not small),

        T1 = (N/sqrt(B)) e^eta * 2 sqrt(xi/eta) K1(2 sqrt(xi eta)),
        xi = A,  eta = sqrt(2/B).

    The large-argument form of K1 gives the diagnostic ln_T_asymptotic.
    Square roots and arithmetic run in arrays, which round them as math
    does; the logarithms, which numpy may round differently, stay in math.
    Where 2/B overflows, eta is sqrt(2)/sqrt(B), and where xi eta does, z is
    2 sqrt(xi) sqrt(eta), so both are finite on every valid row."""
    # as A >= 10, max(A) 2/min(B) bounds every 2/B and every A eta; only
    # a block where that overflows pays for the errstate and split forms
    if float(A.max()) * (2.0 / float(B.min())) < math.inf:
        eta = np.sqrt(2.0 / B)
        z = 2.0 * np.sqrt(A * eta)
    else:
        with np.errstate(over="ignore"):
            eta = np.sqrt(2.0 / B)
            wide = eta == math.inf
            eta[wide] = math.sqrt(2.0) / np.sqrt(B[wide])
            z = 2.0 * np.sqrt(A * eta)
        wide = z == math.inf
        z[wide] = 2.0 * np.sqrt(A[wide]) * np.sqrt(eta[wide])
    ln_A, ln_B, ln_eta = (np.array([math.log(v) for v in col.tolist()])
                          for col in (A, B, eta))
    return log_N - 0.5 * ln_B + eta + _LN2 + 0.5 * (ln_A - ln_eta), z


def _bessel_block(A, B, log_N):
    """The gamma = 1 closed form (_bessel_terms) of each row, with one
    log_bessel_k1 call for all of them, and the failures {row: message}:
    a value above 0, which no probability reaches (the replacement
    overestimates at A^2 B << 1), is a failure that carries it."""
    ln_common, z = _bessel_terms(A, B, log_N)
    ln_T = ln_common + log_bessel_k1(z)
    failures = {
        i: (f"bessel_gamma1 gave ln T = {float(ln_T[i])!r} > 0 for "
            f"A={float(A[i])}, B={float(B[i])}: its |y-1| -> y-1 "
            f"replacement fails at small A^2 B")
        for i in np.flatnonzero(~(ln_T <= 0.0)).tolist()}
    return ln_T, failures


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


def _routes(A, B, gamma, method):
    """Each row's route, as its index into _ROUTES, from the columns that
    _evaluate_columns takes; the one statement of the routing policy.

    An explicit method is used as given.  ``auto`` prefers the exact
    gamma = 1 closed form where its derivation holds (A >= 10 and A^2 B not
    small, so the y < 1 misweighting stays suppressed) and takes quadrature
    everywhere else; only a column with an auto row pays for that test.
    """
    route = np.asarray(method)
    if _AUTO in route.tolist():
        with np.errstate(over="ignore"):
            bessel = (gamma == 1.0) & (A >= BESSEL_MIN_A) & (A * A * B >= 8.0)
        route = np.where(route == _AUTO,
                         np.where(bessel, _BESSEL, _QUADRATURE), route)
    return route


def route(query: BarrierQuery) -> str:
    """The route that evaluate, evaluate_many and the CLI send a query to
    (see _routes)."""
    code, = _routes(*np.array([[query.A], [query.B], [query.gamma]],
                              dtype=float), [METHODS.index(query.method)])
    return str(_ROUTES[code])


def _evaluate_columns(A, B, gamma, method):
    """Evaluate queries given as columns; the one way that any query is
    evaluated.

    A, B and gamma are float arrays and method each row's method as its
    index into METHODS, each row valid as BarrierQuery checks it.  Each
    route that _routes picks evaluates all its rows in one block: the
    steepest-descent closed form in arrays, the Bessel form with one
    log_bessel_k1 call, quadrature with one pass over its rows that solves
    each saddle and sets up its pieces, then one engine call per _BLOCK
    rows.  _shape_consts (and so shape_constants) runs once per distinct
    gamma.
    Every value is bit-identical however the rows are batched or ordered.

    Returns a dict of the columns that the blocks compute: ln_T;
    quad_error_ln, and G and y_star from the quadrature rows' set-up pass,
    each nan where the route gives none; planewave_ok, a list;
    method_used, the route of each row; low_confidence, set only on
    steepest-descent rows; and failures, {row: message} of the rows that
    failed, whose ln_T and quad_error_ln hold their partial estimate.
    consts holds the _shape_consts of each distinct gamma, which
    evaluate_many reuses for the fields that only a result publishes.
    """
    n = len(A)
    route = _routes(A, B, gamma, method)
    routes = set(route.tolist())
    consts = {g: _shape_consts(g) for g in set(gamma.tolist())}
    columns = np.empty((4, n))
    columns.fill(math.nan)
    ln_T, err, G, y_star = columns
    low = np.zeros(n, dtype=bool)
    failures = {}
    for code in routes:
        # the route's rows; all of them as a slice, not a copy
        i = slice(None) if len(routes) == 1 else (route == code).nonzero()[0]
        if code == _QUADRATURE:
            ln_T[i], err[i], G[i], y_star[i], failed = _quadrature_block(
                A[i], B[i], gamma[i], consts)
        elif code == _STEEPEST:
            ln_T[i], low[i], failed = _steepest_block(
                A[i], B[i], gamma[i], consts)
        else:
            ln_T[i], failed = _bessel_block(A[i], B[i], consts[1.0][1])
        if failed:
            at = range(n)[i] if isinstance(i, slice) else i.tolist()
            failures.update((at[k], why) for k, why in failed.items())
    return {"ln_T": ln_T, "quad_error_ln": err, "G": G, "y_star": y_star,
            "planewave_ok": [a * math.sqrt(b) < PLANEWAVE_THRESHOLD
                             for a, b in zip(A.tolist(), B.tolist())],
            "method_used": _ROUTES[route], "low_confidence": low,
            "failures": failures, "consts": consts}


def evaluate_many(queries) -> list:
    """Evaluate queries; one result per query, in order.

    A query that fails gets its ConvergenceError in place of a result, so
    one failure costs the batch nothing else.  The results are built from
    _evaluate_columns, run on CHUNK queries at a time, which bounds memory
    on every route; evaluate's query is a chunk of one.  Only here are the
    fields made that only a result publishes, with the shape constants of
    the column pass: the closed-form queries' G and y* one query at a time
    by _saddle, as the quadrature queries' are, and the Bessel queries'
    ln_T_asymptotic from _bessel_terms.  So each value is bit-identical
    however the queries are batched or ordered.

    G is None where it overflows.  Results publish only stationary points
    above 1: the gamma = 1 root sqrt(G) drops below 1 when G < 1 (peak at
    the cusp).
    """
    queries = list(queries)
    results = []
    for lo in range(0, len(queries), CHUNK):
        chunk = queries[lo:lo + CHUNK]
        A, B, gamma = np.array([(q.A, q.B, q.gamma) for q in chunk],
                               dtype=float).T
        cols = _evaluate_columns(A, B, gamma,
                                 [METHODS.index(q.method) for q in chunk])
        consts, failures = cols["consts"], cols["failures"]
        bessel = (cols["method_used"] == "bessel_gamma1").nonzero()[0]
        asymptotic = {}
        if bessel.size:
            ln_common, z = _bessel_terms(A[bessel], B[bessel], consts[1.0][1])
            asymptotic = {i: c + log_bessel_k1_asymptotic(zi) for i, c, zi in
                          zip(bessel.tolist(), ln_common.tolist(), z.tolist())}
        for i, (a, b, g, m, ok, ln_T, err, G, y, low) in enumerate(zip(
                A.tolist(), B.tolist(), gamma.tolist(),
                cols["method_used"].tolist(), cols["planewave_ok"],
                *(cols[k].tolist() for k in (
                    "ln_T", "quad_error_ln", "G", "y_star",
                    "low_confidence")))):
            err = None if math.isnan(err) else err
            if i in failures:
                results.append(ConvergenceError(failures[i], ln_T=ln_T,
                                                quad_error_ln=err))
                continue
            if m != "quadrature":
                G, y = _saddle(a, b, g, consts[g][0])
            results.append(TransmissionResult(
                ln_T=ln_T, G=G if G < math.inf else None, planewave_ok=ok,
                method_used=m, y_star_numeric=y if y > 1.0 else None,
                y_star_approx=(saddle_point_approx(G, g)
                               if 0.0 < G < math.inf else None),
                quad_error_ln=err,
                low_confidence=low if m == "steepest_descent" else None,
                ln_T_asymptotic=asymptotic.get(i)))
    return results


def evaluate(query: BarrierQuery) -> TransmissionResult:
    """Evaluate one query on the route that _routes picks; evaluate_many
    with a batch of one.  Raises ConvergenceError if the route fails."""
    res, = evaluate_many([query])
    if isinstance(res, ConvergenceError):
        raise res
    return res
