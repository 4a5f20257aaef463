"""Self-validation suite: the release acceptance checks behind `validate`.

Each check is a pure function returning a CheckResult; run_all executes them
in order against the frozen oracle targets shipped in data/. Frozen values
were computed by the independent brute-force oracle (see
scripts/freeze_acceptance_targets.py) before being committed here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import packet, physical
from .errors import AcceptanceDataError
from .packet import PacketShape
from .transmission import (
    BarrierQuery,
    central_moment,
    evaluate,
    saddle_point_approx,
    saddle_point_numeric,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def load_targets(path=None) -> dict:
    """Load the frozen oracle targets; raise AcceptanceDataError when they
    are absent, unreadable, not UTF-8 JSON, or lack a table that a check
    reads, or rows in it, or a row's valid query and finite ln_T."""
    try:
        with (open(path, encoding="utf-8") if path is not None else
              resources.files("coulombpacket").joinpath(
                  "data/acceptance_targets.json").open(encoding="utf-8")) as fh:
            targets = json.load(fh)
    except FileNotFoundError as exc:
        raise AcceptanceDataError(
            f"frozen oracle targets not found ({exc}); "
            "regenerate with scripts/freeze_acceptance_targets.py"
        ) from exc
    except (OSError, ValueError) as exc:
        # ValueError covers UnicodeDecodeError and json.JSONDecodeError
        raise AcceptanceDataError(
            f"frozen oracle targets unreadable: {exc}") from exc
    missing = [k for k in ("gamma1_closed_form", "enhancement")
               if not isinstance(targets, dict) or k not in targets]
    if missing:
        raise AcceptanceDataError(
            f"frozen oracle targets lack {', '.join(missing)}")
    # each row must give the queries that its check makes
    for key, method in (("gamma1_closed_form", "bessel_gamma1"),
                        ("enhancement", "quadrature")):
        try:
            if not targets[key]:
                raise ValueError("no rows")
            for row in targets[key]:
                BarrierQuery(row["A"], row["B"], row["gamma"]
                             if key == "enhancement" else 1.0, method)
                if not math.isfinite(row["ln_T"]):
                    raise ValueError(f"ln_T {row['ln_T']!r} in {row!r}")
        except (LookupError, TypeError, ValueError) as exc:
            raise AcceptanceDataError(
                f"frozen oracle targets have a bad {key} table "
                f"({type(exc).__name__}: {exc})") from exc
    return targets


def check_worked_example(targets) -> CheckResult:
    """G(700, 0.1, gamma=2) = 70 exactly; its cube root = 4.121 +- 0.001."""
    G = evaluate(BarrierQuery(700.0, 0.1, 2.0, "steepest_descent")).G
    root = G ** (1.0 / 3.0)
    ok = (G == 70.0) and abs(root - 4.121) <= 1e-3
    return CheckResult("worked_example_G70", ok,
                       f"G={G!r}, G^(1/3)={root:.6f}")


def check_shape_constants(targets) -> CheckResult:
    """beta special cases to 1e-14; Gaussian normalizer to 1e-12."""
    b1, _ = packet.shape_constants(1.0)
    b2, ln_n2 = packet.shape_constants(2.0)
    n2 = math.exp(ln_n2)
    e1 = abs(b1 - math.sqrt(2.0))
    e2 = abs(b2 - 0.5)
    e3 = abs(n2 - 1.0 / math.sqrt(2.0 * math.pi))
    ok = e1 <= 1e-14 and e2 <= 1e-14 and e3 <= 1e-12
    return CheckResult(
        "shape_constant_special_cases", ok,
        f"|beta(1)-sqrt2|={e1:.1e}, |beta(2)-1/2|={e2:.1e}, "
        f"|N(2)-1/sqrt(2pi)|={e3:.1e}")


def check_delta_limit(targets) -> CheckResult:
    """Sharp packets transmit like the central plane wave."""
    msgs, ok = [], True
    for A in (10.0, 100.0):
        r = evaluate(BarrierQuery(A, 1e-8, 2.0, "quadrature"))
        d = abs(r.ln_T + A)
        ok &= d <= 1e-2
        msgs.append(f"|ln_T({A:.0f},1e-8)+{A:.0f}|={d:.2e}")
    r = evaluate(BarrierQuery(700.0, 1e-10, 2.0, "quadrature"))
    d = abs(r.ln_T + 700.0)
    bound = 2.0 * 700.0 ** 2 * 1e-10
    ok &= d <= bound
    msgs.append(f"(700,1e-10): {d:.2e} <= {bound:.2e}")
    return CheckResult("delta_packet_limit", ok, "; ".join(msgs))


def check_gamma1_closed_form(targets) -> CheckResult:
    """Quadrature, K1 route, and the frozen grid oracle pairwise agree to
    1e-3 relative in ln T at A=700 across four decades of B."""
    msgs, ok = [], True
    for row in targets["gamma1_closed_form"]:
        A, B, ref = row["A"], row["B"], row["ln_T"]
        lq = evaluate(BarrierQuery(A, B, 1.0, "quadrature")).ln_T
        lb = evaluate(BarrierQuery(A, B, 1.0, "bessel_gamma1")).ln_T
        tol = 1e-3 * abs(lq)
        worst = max(abs(lq - lb), abs(lq - ref), abs(lb - ref))
        ok &= worst <= tol
        msgs.append(f"B={B:g}: worst pairwise {worst:.1e} (tol {tol:.1e})")
    return CheckResult("gamma1_closed_form_equivalence", ok, "; ".join(msgs))


def _gamma2_ln_T_bounds(A: float, B: float) -> tuple[float, float]:
    """Two-sided bound on ln T for the Gaussian packet (gamma = 2).

    There T = Int_0^inf exp[-h(y)] dy / sqrt(2 pi B) with
    h(y) = A/y + (y-1)^2/(2B), so h'' = 2A/y^3 + 1/B.  With y* the minimum
    of h (the real root of y^3 - y^2 - AB = 0, found here with numpy so the
    bound does not lean on the saddle solver under test):

    - h'' >= 1/B on (0, inf) gives T <= e^-h(y*);
    - h'' <= kappa = 2A/y*^3 + 1/B on [y*, inf) gives
      T >= e^-h(y*) / (2 sqrt(B kappa)).
    """
    roots = np.roots([1.0, -1.0, 0.0, -A * B])
    y = float(roots[np.argmin(np.abs(roots.imag))].real)
    h = A / y + (y - 1.0) ** 2 / (2.0 * B)
    return -h - math.log(2.0 * math.sqrt(1.0 + 2.0 * A * B / y ** 3)), -h


def check_enhancement_magnitudes(targets) -> CheckResult:
    """Packet-averaged ln T at A=700, pinned to the frozen oracle to 1e-4 and
    placed in a window: the convexity bounds of _gamma2_ln_T_bounds for
    (B=1e-3, gamma=2), i.e. [-580.30582, -579.39608], at least 119.69 e-folds
    above the plane-wave -A; the published floor -690 for (B=1e-5, gamma=1)."""
    windows = {
        (1e-3, 2.0): (*_gamma2_ln_T_bounds(700.0, 1e-3), "convexity bounds"),
        (1e-5, 1.0): (-690.0, math.inf, "published floor"),
    }
    msgs, ok = [], True
    for row in targets["enhancement"]:
        A, B, g, ref = row["A"], row["B"], row["gamma"], row["ln_T"]
        lq = evaluate(BarrierQuery(A, B, g, "quadrature")).ln_T
        pinned = abs(lq - ref) <= 1e-4
        # a point without a window fails: nan bounds hold no ln T
        lo, hi, source = windows.get((B, g), (math.nan, math.nan,
                                              "no window"))
        inside = lo <= lq <= hi
        ok &= pinned and inside
        msgs.append(f"(B={B:g},g={g:g}): {lo:.5f} <= {lq:.5f} <= {hi:.5f} "
                    f"({source}) inside={inside} "
                    f"oracle_diff={abs(lq - ref):.1e}")
    return CheckResult("enhancement_magnitudes", ok, "; ".join(msgs))


def check_ratio_study(targets) -> CheckResult:
    """Steepest-descent quality at A=700: R within 5% for gamma=1 across
    B in [1e-5, 1]; |ln R| strictly decreasing in B for gamma in {2, 3}."""
    msgs, ok = [], True
    for B in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        lq = evaluate(BarrierQuery(700.0, B, 1.0, "quadrature")).ln_T
        ls = evaluate(BarrierQuery(700.0, B, 1.0, "steepest_descent")).ln_T
        R = math.exp(ls - lq)
        ok &= 0.95 <= R <= 1.05
    msgs.append("gamma=1: R in [0.95,1.05] across B grid")
    for g in (2.0, 3.0):
        lnR = []
        for B in (0.1, 1.0, 10.0):
            lq = evaluate(BarrierQuery(700.0, B, g, "quadrature")).ln_T
            ls = evaluate(BarrierQuery(700.0, B, g, "steepest_descent")).ln_T
            lnR.append(abs(ls - lq))
        dec = lnR[0] > lnR[1] > lnR[2]
        ok &= dec
        msgs.append(f"gamma={g:g}: |lnR|={['%.4f' % v for v in lnR]} "
                    f"decreasing={dec}")
    return CheckResult("ratio_study", ok, "; ".join(msgs))


def check_packet_identities(targets) -> CheckResult:
    """Normalization 1 +- 1e-8 and variance B +- 1e-6 B on the shape grid."""
    worst_n, worst_v = 0.0, 0.0
    for g in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        for B in (1e-4, 1e-2, 1.0):
            shape = PacketShape.from_gamma(g, B)
            worst_n = max(worst_n, abs(central_moment(shape, 0) - 1.0))
            worst_v = max(worst_v, abs(central_moment(shape, 2) - B) / B)
    ok = worst_n <= 1e-8 and worst_v <= 1e-6
    return CheckResult("packet_identities", ok,
                       f"worst |norm-1|={worst_n:.1e}, "
                       f"worst |var/B-1|={worst_v:.1e}")


def check_saddle_machinery(targets) -> CheckResult:
    """Stationary-point equation residual, the exact gamma=1 root, and the
    monotone accuracy of the large-G approximation."""
    msgs, ok = [], True
    for G, g in ((70.0, 2.0), (1.0, 2.0), (1e4, 3.0), (12.0, 1.5)):
        y = saddle_point_numeric(G, g)
        resid = abs(G / y ** 2 - (y - 1.0) ** (g - 1.0))
        ok &= resid <= 1e-12 * max(1.0, G)
    msgs.append("residuals <= 1e-12*max(1,G)")
    exact = all(saddle_point_numeric(G, 1.0) == math.sqrt(G)
                for G in (0.5, 2.0, 25.0, 1e6))
    ok &= exact
    msgs.append(f"gamma=1 root == sqrt(G): {exact}")
    for g in (1.5, 2.0, 3.0):
        errs = [abs(saddle_point_approx(G, g) - saddle_point_numeric(G, g))
                / saddle_point_numeric(G, g) for G in (1e2, 1e4, 1e6)]
        dec = errs[0] > errs[1] > errs[2]
        ok &= dec
        msgs.append(f"approx err decreasing (gamma={g:g}): {dec}")
    return CheckResult("saddle_machinery", ok, "; ".join(msgs))


def check_correlation_scaling(targets) -> CheckResult:
    """Exact cube-root identity on the leading exponent; full-formula ratio
    within 0.02 of (1-r^2)^(1/3) at A=700, B=1, r in {0.3, 0.6, 0.9}."""
    from .correlation import leading_exponent_gamma2

    msgs, ok = [], True
    worst = 0.0
    for x in (1.0, 8.0, 4.9e8, 1e-3):
        for r in (0.0, 0.3, 0.6, 0.9, 0.99):
            f = 1.0 - r * r
            lhs = leading_exponent_gamma2(x * f)
            rhs = f ** (1.0 / 3.0) * leading_exponent_gamma2(x)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok &= worst <= 1e-12
    msgs.append(f"leading-exponent identity worst rel {worst:.1e}")
    ln0 = evaluate(BarrierQuery(700.0, 1.0, 2.0, "steepest_descent")).ln_T
    for r in (0.3, 0.6, 0.9):
        f = 1.0 - r * r
        lnr = evaluate(BarrierQuery(700.0, 1.0 / f, 2.0,
                                    "steepest_descent")).ln_T
        diff = abs(lnr / ln0 - f ** (1.0 / 3.0))
        ok &= diff <= 0.02
        msgs.append(f"r={r}: |ratio-(1-r^2)^(1/3)|={diff:.4f}")
    return CheckResult("correlation_scaling", ok, "; ".join(msgs))


def check_physical_map(targets) -> CheckResult:
    """Deuteron barrier strengths at 10 keV and 1 eV; exact scaling laws."""
    msgs, ok = [], True
    d10k = physical.ParticleSpec(Z=1.0, mass_amu=physical.DEUTERON_MASS_AMU,
                                 kinetic_energy_ev=1e4)
    d1 = physical.ParticleSpec(Z=1.0, mass_amu=physical.DEUTERON_MASS_AMU,
                               kinetic_energy_ev=1.0)
    A10k, A1 = physical.big_A(d10k), physical.big_A(d1)
    ok &= 13.5 <= A10k <= 14.5
    ok &= 1.35e3 <= A1 <= 1.45e3
    msgs.append(f"A(10keV)={A10k:.4f}, A(1eV)={A1:.2f}")
    dz = physical.ParticleSpec(Z=3.0, mass_amu=physical.DEUTERON_MASS_AMU,
                               kinetic_energy_ev=1e4)
    dE = physical.ParticleSpec(Z=1.0, mass_amu=physical.DEUTERON_MASS_AMU,
                               kinetic_energy_ev=2.5e3)
    rZ = physical.big_A(dz) / A10k
    rE = physical.big_A(dE) / A10k
    ok &= abs(rZ - 3.0) <= 1e-12 and abs(rE - 2.0) <= 1e-12
    msgs.append(f"Z-linearity ratio={rZ!r}, E^(-1/2) ratio={rE!r}")
    return CheckResult("physical_map", ok, "; ".join(msgs))


CHECKS = (
    check_worked_example,
    check_shape_constants,
    check_delta_limit,
    check_gamma1_closed_form,
    check_enhancement_magnitudes,
    check_ratio_study,
    check_packet_identities,
    check_saddle_machinery,
    check_correlation_scaling,
    check_physical_map,
)


def run_all(targets_path=None) -> list[CheckResult]:
    """Run every acceptance check; raises AcceptanceDataError if the frozen
    targets are missing or unreadable."""
    targets = load_targets(targets_path)
    return [check(targets) for check in CHECKS]
