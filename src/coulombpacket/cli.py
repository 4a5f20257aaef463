"""Command-line surface: transmit, sweep, ratio, from-table, physical, validate.

Exit codes: 0 success; 2 usage; 3 convergence failure (partial result on
stderr); 4 unwritable output path; 5 density-table CSV that is malformed,
unreadable or has no density at y > 0; 6 relativistic regime; validate
returns 1 when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import stat
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
# queries that sweep and ratio evaluate, render and write at a time; a
# two-method sweep fills steepest-descent blocks only half, which measured
# as fast as 2048 and holds half the rows
CHUNK = 1024

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


def _grid(A_vals, gammas, b_vals, methods):
    """The queries of a grid, ordered by A, then gamma, then B, then method,
    built lazily once the whole grid is known to be valid.

    The check builds one query per (A, gamma, method) at the first B, plus
    one per B in the first (A, gamma) block.  It raises the error of the
    grid's first invalid query, as building every query in order would,
    because BarrierQuery checks B apart from A, gamma and method (pinned by
    test_query_validity_splits_into_B_and_the_rest).
    """
    for i, (A, g) in enumerate(itertools.product(A_vals, gammas)):
        for m in methods:
            BarrierQuery(A, float(b_vals[0]), g, m)
        if i == 0:
            for B in b_vals[1:]:
                BarrierQuery(A, float(B), g, methods[0])
    return (BarrierQuery(A, float(B), g, m)
            for A in A_vals for g in gammas for B in b_vals for m in methods)


def _evaluated(queries):
    """(query, result or ConvergenceError) in query order, evaluated
    CHUNK queries at a time so that memory does not grow with the grid."""
    queries = iter(queries)
    while chunk := list(itertools.islice(queries, CHUNK)):
        yield from zip(chunk, evaluate_many(chunk))


def _write_lines(path, lines) -> int:
    """Write lines to path, all or nothing when path is a regular file.

    A path that is a regular file, or absent, gets a new file beside it
    (beside its target, if path is a symlink), which replaces it once the
    last line is written and is removed on any failure, so it never holds a
    partial table.  Any other path, such as a pipe or /dev/stdout, is
    written in place.  The file is opened before the first line is asked
    for, so an unwritable path exits 4 before any evaluation.
    """
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        in_place = False
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    ours = False                        # tmp exists and is this call's
    try:
        if in_place:
            fh = open(path, "w", encoding="utf-8", newline="\n")
        else:
            fh = open(tmp, "x", encoding="utf-8", newline="\n")
            ours = True
        with fh:
            for line in lines:
                fh.write(line + "\n")
        if ours:
            os.replace(tmp, target)
            ours = False
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 4
    finally:
        if ours:
            with contextlib.suppress(OSError):
                os.remove(tmp)
    return 0


def _csv_lines(header, rows):
    yield header
    for row in rows:
        yield ",".join(map(_token, row))


def _json_lines(keys, rows):
    """A JSON array, one row object per line; each line is held back until
    the next row shows whether it needs a trailing comma."""
    yield "["
    line = None
    for row in rows:
        if line is not None:
            yield line + ","
        line = "  " + _render_json(zip(keys, row))
    if line is not None:
        yield line
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
    """Write the grid as CSV or JSON: CHUNK queries are evaluated and their
    rows rendered and written before the next CHUNK is built, and --out
    appears only once complete (see _write_lines)."""
    try:
        b_vals = _b_values(args.B_min, args.B_max, args.B_count,
                           args.B_spacing)
        queries = _grid(args.A, args.gammas, b_vals,
                        [METHOD_FLAGS[m] for m in args.method])
    except (DomainError, RangeError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return 2

    def rows():
        for q, res in _evaluated(queries):
            if isinstance(res, ConvergenceError):
                ok = planewave_validity(q.A, q.B)[1]
                yield (q.A, q.B, q.gamma, route(q), None, None, None, ok,
                       f"no convergence; best ln_T={_token(res.ln_T)}")
            else:
                yield (q.A, q.B, q.gamma, res.method_used, res.ln_T,
                       res.log10_T, res.quad_error_ln, res.planewave_ok)

    if args.format == "csv":
        return _write_lines(args.out, _csv_lines(SWEEP_HEADER, rows()))
    return _write_lines(args.out, _json_lines(SWEEP_KEYS, rows()))


def cmd_ratio(args) -> int:
    """Write the ratio table, streamed as cmd_sweep streams its grid."""
    try:
        b_vals = _b_values(args.B_min, args.B_max, args.B_count)
        queries = _grid([args.A], args.gammas, b_vals,
                        ["quadrature", "steepest_descent"])
    except (DomainError, RangeError) as exc:
        print(f"invalid ratio study: {exc}", file=sys.stderr)
        return 2

    def rows():
        # each point's quadrature and steepest-descent results, in turn
        results = _evaluated(queries)
        for (q, rq), (_, rs) in zip(results, results):
            if (isinstance(rq, ConvergenceError)
                    or isinstance(rs, ConvergenceError)):
                yield (q.A, q.B, q.gamma, None, None, None, "no convergence")
                continue
            # R can under/overflow a float; render via its log instead.
            # 11 decimals = 12 significant digits, same as _token.
            yield (q.A, q.B, q.gamma, rq.ln_T, rs.ln_T,
                   LogMagnitude(rs.ln_T - rq.ln_T).scientific(11))

    return _write_lines(args.out, _csv_lines(RATIO_HEADER, rows()))


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
