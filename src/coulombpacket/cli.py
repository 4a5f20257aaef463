"""Command-line surface: transmit, sweep, ratio, from-table, physical, validate.

Exit codes: 0 success; 2 usage; 3 convergence failure (partial result on
stderr); 4 unwritable output path; 5 density-table CSV that is malformed,
unreadable or has no density at y > 0; 6 relativistic regime; validate
returns 1 when any check fails.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import acceptance, physical
from .errors import (
    AcceptanceDataError,
    ConvergenceError,
    DomainError,
    RangeError,
    RegimeError,
    TableFormatError,
)
from .packet import read_density_table
from .specfun import LogMagnitude
from .transmission import (
    BarrierQuery,
    evaluate_many,
    ln_T_from_table,
    planewave_validity,
    route,
)

SWEEP_HEADER = "A,B,gamma,method,ln_T,log10_T,quad_error_ln,planewave_ok"
RATIO_HEADER = "A,B,gamma,ln_T_quad,ln_T_star,R"
SWEEP_KEYS = SWEEP_HEADER.split(",") + ["note"]

# user-facing method names -> internal enums
METHOD_FLAGS = {
    "quad": "quadrature",
    "saddle": "steepest_descent",
    "bessel": "bessel_gamma1",
    "auto": "auto",
}


def _token(x, json=False) -> str:
    """One value as a CSV cell or, with ``json``, a JSON token; numbers
    carry 12 significant digits in scientific notation."""
    if x is None:
        return "null" if json else ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return f'"{x}"' if json else x
    return f"{x:.11e}"


def _render_json(pairs) -> str:
    """Deterministic one-line JSON object from (key, value) pairs."""
    body = ", ".join(f'"{k}": {_token(v, json=True)}' for k, v in pairs)
    return "{" + body + "}"


def _result_pairs(res):
    """The fixed single-result schema, plus diagnostics when present."""
    pairs = [
        ("ln_T", res.ln_T),
        ("log10_T", res.log10_T),
        ("G", res.G),
        ("y_star_numeric", res.y_star_numeric),
        ("y_star_approx", res.y_star_approx),
        ("quad_error_ln", res.quad_error_ln),
        ("planewave_ok", res.planewave_ok),
        ("method_used", res.method_used),
    ]
    if res.low_confidence is not None:
        pairs.append(("low_confidence", res.low_confidence))
    if res.ln_T_asymptotic is not None:
        pairs.append(("ln_T_asymptotic", res.ln_T_asymptotic))
    return pairs


def _b_values(b_min, b_max, count, spacing="log"):
    """The B grid shared by ``sweep`` and ``ratio``."""
    if not (0.0 < b_min < b_max) or count < 2:
        raise DomainError("B grid requires 0 < min < max and count >= 2")
    if spacing == "log":
        return np.logspace(math.log10(b_min), math.log10(b_max), count)
    return np.linspace(b_min, b_max, count)


def _write_lines(path, lines) -> int:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 4
    return 0


def _csv_lines(header, rows):
    yield header
    for row in rows:
        yield ",".join(map(_token, row))


def _json_lines(keys, rows):
    yield "["
    for i, row in enumerate(rows, 1):
        sep = "," if i < len(rows) else ""
        yield "  " + _render_json(zip(keys, row)) + sep
    yield "]"


def cmd_transmit(args) -> int:
    try:
        query = BarrierQuery(args.A, args.B, args.gamma,
                             METHOD_FLAGS[args.method])
    except (DomainError, RangeError) as exc:
        print(f"invalid query: {exc}", file=sys.stderr)
        return 2
    res, = evaluate_many([query])
    if isinstance(res, ConvergenceError):
        partial = [("ln_T", res.ln_T), ("quad_error_ln", res.quad_error_ln)]
        print(_render_json(partial), file=sys.stderr)
        print(f"quadrature did not converge: {res}", file=sys.stderr)
        return 3
    print(_render_json(_result_pairs(res)))
    return 0


def cmd_sweep(args) -> int:
    try:
        b_vals = _b_values(args.B_min, args.B_max, args.B_count,
                           args.B_spacing)
        queries = [BarrierQuery(A, float(B), g, METHOD_FLAGS[m])
                   for A in args.A
                   for g in args.gammas
                   for B in b_vals
                   for m in args.method]
    except (DomainError, RangeError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return 2

    rows = []
    for q, res in zip(queries, evaluate_many(queries)):
        if isinstance(res, ConvergenceError):
            ok = planewave_validity(q.A, q.B)[1]
            rows.append((q.A, q.B, q.gamma, route(q), None, None, None, ok,
                         f"no convergence; best ln_T={_token(res.ln_T)}"))
        else:
            rows.append((q.A, q.B, q.gamma, res.method_used, res.ln_T,
                         res.log10_T, res.quad_error_ln, res.planewave_ok))
    if args.format == "csv":
        return _write_lines(args.out, _csv_lines(SWEEP_HEADER, rows))
    return _write_lines(args.out, _json_lines(SWEEP_KEYS, rows))


def cmd_ratio(args) -> int:
    try:
        b_vals = _b_values(args.B_min, args.B_max, args.B_count)
        quad_queries = [BarrierQuery(args.A, float(B), g, "quadrature")
                        for g in args.gammas for B in b_vals]
        star_queries = [BarrierQuery(args.A, float(B), g, "steepest_descent")
                        for g in args.gammas for B in b_vals]
    except (DomainError, RangeError) as exc:
        print(f"invalid ratio study: {exc}", file=sys.stderr)
        return 2

    rows = []
    for q, rq, rs in zip(quad_queries, evaluate_many(quad_queries),
                         evaluate_many(star_queries)):
        if isinstance(rq, ConvergenceError) or isinstance(rs, ConvergenceError):
            rows.append((q.A, q.B, q.gamma, None, None, None, "no convergence"))
            continue
        # R can under/overflow a float; render via its log instead.
        # 11 decimals = 12 significant digits, same as _token.
        rows.append((q.A, q.B, q.gamma, rq.ln_T, rs.ln_T,
                     LogMagnitude(rs.ln_T - rq.ln_T).scientific(11)))
    return _write_lines(args.out, _csv_lines(RATIO_HEADER, rows))


def cmd_from_table(args) -> int:
    try:
        res = ln_T_from_table(read_density_table(args.file), args.A)
    except DomainError as exc:
        print(f"invalid A: {exc}", file=sys.stderr)
        return 2
    except TableFormatError as exc:
        print(f"malformed density table: {exc}", file=sys.stderr)
        return 5
    print(_render_json(_result_pairs(res)))
    return 0


def cmd_physical(args) -> int:
    try:
        spec = physical.ParticleSpec(Z=args.Z, mass_amu=args.mass_amu,
                                     kinetic_energy_ev=args.energy_eV)
        v0c = physical.v0_over_c(spec, reduced_mass=args.reduced_mass)
        A = physical.big_A(spec, reduced_mass=args.reduced_mass)
    except DomainError as exc:
        print(f"invalid particle spec: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"relativistic regime: {exc}", file=sys.stderr)
        return 6
    scale = physical.little_a(spec)
    print(_render_json([
        ("A", A),
        ("a_over_mc", scale.a_over_mc),
        ("v0_over_c", v0c),
        ("relativistic_flag", v0c > physical.RELATIVISTIC_THRESHOLD),
    ]))
    return 0


def cmd_validate(args) -> int:
    try:
        results = acceptance.run_all(targets_path=args.targets)
    except AcceptanceDataError as exc:
        print(f"validation could not run: {exc}", file=sys.stderr)
        return 1
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulombpacket",
        description=("Tunneling probability of momentum wave packets "
                     "through a high 1-D Coulomb barrier"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transmit", help="evaluate one (A, B, gamma) query")
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--method", choices=sorted(METHOD_FLAGS), default="auto")
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("sweep", help="write a CSV/JSON grid of ln_T values")
    p.add_argument("--A", type=float, nargs="+", required=True)
    p.add_argument("--gammas", type=float, nargs="+", required=True)
    p.add_argument("--B-min", type=float, required=True)
    p.add_argument("--B-max", type=float, required=True)
    p.add_argument("--B-count", type=int, default=50)
    p.add_argument("--B-spacing", choices=("log", "linear"), default="log")
    p.add_argument("--method", choices=sorted(METHOD_FLAGS), nargs="+",
                   default=["auto"])
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ratio", help="steepest-descent vs quadrature study")
    p.add_argument("--A", type=float, default=700.0)
    p.add_argument("--gammas", type=float, nargs="+",
                   default=[1.0, 1.5, 2.0, 3.0])
    p.add_argument("--B-min", type=float, default=1e-5)
    p.add_argument("--B-max", type=float, default=10.0)
    p.add_argument("--B-count", type=int, default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("from-table", help="average exp(-A/y) over a CSV density")
    p.add_argument("--file", required=True)
    p.add_argument("--A", type=float, required=True)
    p.set_defaults(func=cmd_from_table)

    p = sub.add_parser("physical", help="map (Z, mass, energy) to barrier A")
    p.add_argument("--Z", type=float, required=True)
    p.add_argument("--mass-amu", type=float, required=True)
    p.add_argument("--energy-eV", type=float, required=True)
    p.add_argument("--reduced-mass", action="store_true",
                   help="use m/2 (identical collision partners)")
    p.set_defaults(func=cmd_physical)

    p = sub.add_parser("validate", help="run the acceptance checks")
    p.add_argument("--targets", default=None,
                   help="override path to the frozen oracle targets")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize and re-raise as code
        return int(exc.code or 0)
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())
