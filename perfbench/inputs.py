"""Inputs of the benchmark's phases, made from fixed constants and ``--seed``.

The quadrature sweep grid, the reference pool and the cold-start points
are fixed; ``make_reference.py`` computes their mpmath values once.  The
seed chooses the order in which a run queries the pool points singly and
where the fast-route sweep grid sits inside B in [1e-3, 10].
"""

from __future__ import annotations

import math

import numpy as np

# --- quad phase, sweeps: 5 A x 8 gamma x 40 B = 1600 points, run as
# one sweep per gamma so that the sweep time is sampled across the round
QUAD_SWEEP_A = (0.3, 5.0, 70.0, 700.0, 1e4)
QUAD_SWEEP_GAMMAS = (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 4.0, 10.0)
QUAD_SWEEP_B = (1e-12, 1e3, 40)  # min, max, count; log-spaced

# --- quad phase, single calls: every point of a fixed pool drawn
# log-uniformly over the supported box
POOL_SEED = 20140707
POOL_SIZE = 2000
POOL_BOX = {"A": (0.1, 1e5), "B": (1e-13, 1e4), "gamma": (0.11, 10.0)}

# (A, B, gamma) of QUAD_ORACLE in tests/test_transmission.py
ORACLE_POINTS = (
    (700.0, 1e-5, 1.0), (700.0, 1e-4, 1.0), (700.0, 1e-3, 1.0),
    (700.0, 1e-2, 1.0), (700.0, 1e-3, 2.0), (700.0, 1.0, 2.0),
    (700.0, 10.0, 3.0), (100.0, 1e-4, 4.0), (50.0, 0.02, 0.5),
    (20.0, 0.5, 1.2), (10.0, 0.3, 0.3), (5.0, 2.0, 3.0),
)

# --- cold phase: (CLI method, A, B, gamma), run alternately
COLD_POINTS = (("quad", 700.0, 1e-3, 2.0), ("bessel", 700.0, 1e-3, 1.0))

# --- fast phase: two sweeps, each written as CSV and as JSON
FAST_A = (30.0, 100.0, 700.0, 3000.0)
FAST_B_RANGE = (1e-3, 10.0)
FAST_B_COUNT = 500
FAST_SWEEPS = (
    ((1.0,), ("bessel", "saddle")),
    ((0.5, 1.5, 2.0, 3.0, 5.0), ("saddle",)),
)
METHOD_NAMES = {"quad": "quadrature", "saddle": "steepest_descent",
                "bessel": "bessel_gamma1"}


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def pool_points():
    """The reference pool, log-uniform over POOL_BOX (seed-independent)."""
    rng = np.random.default_rng(POOL_SEED)
    cols = [_log_uniform(rng, *POOL_BOX[k], POOL_SIZE) for k in ("A", "B", "gamma")]
    return [tuple(float(v) for v in p) for p in zip(*cols)]


def quad_sweep_b_values():
    b_min, b_max, count = QUAD_SWEEP_B
    return np.logspace(math.log10(b_min), math.log10(b_max), count)


def quad_sweep_points():
    """Sweep rows in the CLI's documented order: A, then gamma, then B."""
    return [(A, float(B), g) for A in QUAD_SWEEP_A for g in QUAD_SWEEP_GAMMAS
            for B in quad_sweep_b_values()]


def quad_sweep_argv(gamma, out):
    b_min, b_max, count = QUAD_SWEEP_B
    return (["sweep", "--A", *map(repr, QUAD_SWEEP_A), "--gammas", repr(gamma),
             "--B-min", repr(b_min), "--B-max", repr(b_max),
             "--B-count", str(count), "--method", "quad",
             "--format", "csv", "--out", out])


def call_order(seed):
    """The order in which a run evaluates the pool points singly."""
    return np.random.default_rng([seed, 1]).permutation(POOL_SIZE).tolist()


def fast_b_range(seed):
    """B grid limits for this seed: each end moves inward by up to 10^0.25."""
    rng = np.random.default_rng([seed, 2])
    u, v = rng.uniform(0.0, 0.25, 2)
    lo, hi = FAST_B_RANGE
    return float(lo * 10.0 ** u), float(hi / 10.0 ** v)


def fast_sweep_specs(seed):
    """[(argv without --format/--out, expected rows as (A, B, gamma, method))]."""
    b_min, b_max = fast_b_range(seed)
    b_vals = np.logspace(math.log10(b_min), math.log10(b_max), FAST_B_COUNT)
    specs = []
    for gammas, methods in FAST_SWEEPS:
        argv = ["sweep", "--A", *map(repr, FAST_A),
                "--gammas", *map(repr, gammas),
                "--B-min", repr(b_min), "--B-max", repr(b_max),
                "--B-count", str(FAST_B_COUNT), "--method", *methods]
        rows = [(A, float(B), g, METHOD_NAMES[m]) for A in FAST_A for g in gammas
                for B in b_vals for m in methods]
        specs.append((argv, rows))
    return specs
