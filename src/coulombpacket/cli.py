"""Command-line surface: transmit, sweep, ratio, from-table, physical, validate.

Exit codes: 0 success; 2 usage; 3 convergence failure (partial result on
stderr); 4 unwritable output path; 5 density-table CSV that is malformed,
unreadable or has no density at y > 0; 6 relativistic regime; validate
returns 1 when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    _LN10,
    CHUNK,
    METHODS,
    BarrierQuery,
    _evaluate_columns,
    evaluate_many,
    ln_T_from_table,
)

SWEEP_HEADER = "A,B,gamma,method,ln_T,log10_T,quad_error_ln,planewave_ok"
RATIO_HEADER = "A,B,gamma,ln_T_quad,ln_T_star,R"
SWEEP_KEYS = SWEEP_HEADER.split(",") + ["note"]
# every number of every output: 12 significant digits in scientific notation
_NUMBER = "%.11e"

# user-facing method names -> internal enums
METHOD_FLAGS = {
    "quad": "quadrature",
    "saddle": "steepest_descent",
    "bessel": "bessel_gamma1",
    "auto": "auto",
}


def _token(x, json=False) -> str:
    """One value as a CSV cell or, with ``json``, a JSON token; numbers
    carry 12 significant digits in scientific notation, and a JSON number
    that is not finite, which JSON cannot hold, is null."""
    if x is None or json and isinstance(x, float) and not math.isfinite(x):
        return "null" if json else ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return f'"{x}"' if json else x
    return _NUMBER % x


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
    for name, b in (("min", b_min), ("max", b_max)):
        if not math.isfinite(b):
            raise DomainError(
                f"B grid requires a finite --B-{name}, got {b!r}")
    if not (0.0 < b_min < b_max) or count < 2:
        raise DomainError("B grid requires 0 < min < max and count >= 2")
    if spacing == "log":
        return np.logspace(math.log10(b_min), math.log10(b_max), count)
    return np.linspace(b_min, b_max, count)


def _grid(A_vals, gammas, b_vals, methods):
    """The grid's rows, CHUNK at a time, ordered by A, then gamma, then B,
    then method, built lazily once the whole grid is known to be valid.
    Each chunk comes as its rows' indices into the axes (A_vals, b_vals,
    gammas), then as its columns (A, B, gamma, method), each method, a
    METHODS name, as its index into METHODS.

    The check builds one query per (A, gamma, method) at the first B, and
    one more only if some B fails the array test that BarrierQuery makes of
    B (finite and positive): at the first such B in the first (A, gamma)
    block.  It raises the error of the grid's first invalid query, as
    building every query in order would, because BarrierQuery checks B
    apart from A, gamma and method (pinned by
    test_query_validity_splits_into_B_and_the_rest).
    """
    for i, (A, g) in enumerate(itertools.product(A_vals, gammas)):
        for m in methods:
            BarrierQuery(A, float(b_vals[0]), g, m)
        if i == 0:
            bad = np.flatnonzero(~(np.isfinite(b_vals) & (b_vals > 0.0)))
            if bad.size:
                BarrierQuery(A, float(b_vals[bad[0]]), g, methods[0])
    return _grid_chunks(*(np.array(v, dtype=dtype) for v, dtype in (
        (A_vals, float), (gammas, float), (b_vals, float),
        ([METHODS.index(m) for m in methods], np.intp))))


def _grid_chunks(A_vals, gammas, b_vals, methods):
    # the rows of each chunk by their flat index into the grid
    shape = (A_vals.size, gammas.size, b_vals.size, methods.size)
    total = math.prod(shape)
    for lo in range(0, total, CHUNK):
        a, g, b, m = np.unravel_index(np.arange(lo, min(lo + CHUNK, total)),
                                      shape)
        yield (a, b, g), (A_vals[a], b_vals[b], gammas[g], methods[m])


def _write_lines(path, lines) -> int:
    """Write the strings of lines, in order, to path, all or nothing when
    path is a regular file; sweep and ratio hand it one string per chunk
    of their grid.

    A path that is a regular file, or absent, gets a new file beside it
    (beside its target, if path is a symlink), which replaces it once the
    last string is written and is removed on any failure, so it never
    holds a partial table.  Any other path, such as a pipe or /dev/stdout,
    is written in place.  The file is opened before the first string is
    asked for, so an unwritable path exits 4 before any evaluation.
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
            fh.writelines(lines)
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


def _sweep_format(json):
    """The %-format of a sweep row that holds a result: the A, B and gamma
    cells as text already in _token's format, the method as a string, the
    other numbers in _token's format, and the quad_error_ln and
    planewave_ok cells as tokens that _token made."""
    text = '"%s"' if json else "%s"
    cells = ["%s"] * 3 + [text] + [_NUMBER] * 2 + ["%s"] * 2
    if json:
        return "  {" + ", ".join(
            f'"{k}": {c}' for k, c in zip(SWEEP_KEYS, cells)) + "}"
    return ",".join(cells)


# per format: the row format, and the head, separator and tail of a table;
# every row is a result row or a failure row, so no table is empty
_SWEEP_TABLES = {False: (_sweep_format(False), SWEEP_HEADER + "\n", "\n",
                         "\n"),
                 True: (_sweep_format(True), "[\n", ",\n", "\n]\n")}
_CELLS = 8                              # cells of a result row
_BOOLEANS = ("false", "true")            # _token of False and True
_RATIO_FORMAT = ",".join([_NUMBER] * 5 + ["%s"])


def _sweep_chunk(text, idx, grid_cols, cols, json, first):
    """The rows of a chunk of the grid as one string, each after the
    format's separator but the table's first, from its columns grid_cols
    (A, B, gamma, method) and their results cols (see _evaluate_columns).

    text holds the A, B and gamma axes, each value formatted once per
    sweep, and idx each row's indices into them.  Every row's cells go
    into one flat list, a column at a time, and each run of rows that hold
    a result is rendered by one %; where the run is the whole chunk, the
    list is neither sliced nor kept beside the format and its output.  A
    failed row keeps its coordinates, the route and the plane-wave
    verdict, and notes its partial ln_T.
    """
    fmt, _, sep, _ = _SWEEP_TABLES[json]
    n = len(idx[0])
    ln_T, err, ok = cols["ln_T"], cols["quad_error_ln"], cols["planewave_ok"]
    method = cols["method_used"].tolist()
    cells = [None] * (_CELLS * n)
    for k, (axis, i) in enumerate(zip(text, idx)):
        cells[k::_CELLS] = axis[i].tolist()
    cells[3::_CELLS] = method
    cells[4::_CELLS] = ln_T.tolist()
    cells[5::_CELLS] = (ln_T / _LN10).tolist()
    none = _token(None, json)
    # nan: the route gives no estimate
    cells[6::_CELLS] = [none if e != e else _NUMBER % e for e in err.tolist()]
    cells[7::_CELLS] = map(_BOOLEANS.__getitem__, ok)
    rows, lo = [] if first else [""], 0
    for i in sorted(cols["failures"]) + [n]:
        if lo < i:
            if i - lo == n:
                # the tuple holds every cell: drop the list before the
                # format and its output are built
                run = tuple(cells)
                cells.clear()
            else:
                run = tuple(cells[_CELLS * lo:_CELLS * i])
            rows.append(sep.join([fmt] * (i - lo)) % run)
        if i < n:
            row = (*(float(c[i]) for c in grid_cols[:3]), method[i], None,
                   None, None, ok[i],
                   f"no convergence; best ln_T={_token(float(ln_T[i]))}")
            rows.append("  " + _render_json(zip(SWEEP_KEYS, row)) if json
                        else ",".join(map(_token, row)))
        lo = i + 1
    return sep.join(rows)


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
        print(f"no convergence: {res}", file=sys.stderr)
        return 3
    print(_render_json(_result_pairs(res)))
    return 0


def cmd_sweep(args) -> int:
    """Write the grid as CSV or JSON: each chunk of CHUNK rows is evaluated
    as columns, rendered as one string (_sweep_chunk) and written before
    the next chunk is built, and --out appears only once complete (see
    _write_lines)."""
    try:
        b_vals = _b_values(args.B_min, args.B_max, args.B_count,
                           args.B_spacing)
        grid = _grid(args.A, args.gammas, b_vals,
                     [METHOD_FLAGS[m] for m in args.method])
    except (DomainError, RangeError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return 2
    json = args.format == "json"
    _, head, _, tail = _SWEEP_TABLES[json]
    text = [np.array([_NUMBER % v for v in axis], dtype=object)
            for axis in (args.A, b_vals.tolist(), args.gammas)]

    def lines():
        yield head
        for k, (idx, grid_cols) in enumerate(grid):
            cols = _evaluate_columns(*grid_cols)
            yield _sweep_chunk(text, idx, grid_cols, cols, json, k == 0)
        yield tail

    return _write_lines(args.out, lines())


def cmd_ratio(args) -> int:
    """Write the ratio table, streamed as cmd_sweep streams its grid, one
    string per chunk of points: each chunk's columns are evaluated once by
    quadrature and once by steepest descent, and each point's row is
    rendered from its two results."""
    try:
        b_vals = _b_values(args.B_min, args.B_max, args.B_count)
        # a steepest-descent query is valid wherever a quadrature one is
        grid = _grid([args.A], args.gammas, b_vals, ["quadrature"])
    except (DomainError, RangeError) as exc:
        print(f"invalid ratio study: {exc}", file=sys.stderr)
        return 2
    steepest = METHODS.index("steepest_descent")

    def row(A, B, g, ln_q, ln_s, failed):
        if failed:
            return ",".join(map(_token, (A, B, g, None, None, None,
                                         "no convergence")))
        # R can under/overflow a float; render via its log instead.
        # 11 decimals = 12 significant digits, same as _token.
        return _RATIO_FORMAT % (A, B, g, ln_q, ln_s, LogMagnitude(
            ln_s - ln_q).scientific(11))

    def lines():
        yield RATIO_HEADER + "\n"
        for _, (A, B, g, m) in grid:
            quad, saddle = (_evaluate_columns(A, B, g, methods) for methods
                            in (m, np.full_like(m, steepest)))
            failed = quad["failures"].keys() | saddle["failures"].keys()
            yield "".join(row(*point, i in failed) + "\n" for i, point in
                          enumerate(zip(A.tolist(), B.tolist(), g.tolist(),
                                        quad["ln_T"].tolist(),
                                        saddle["ln_T"].tolist())))

    return _write_lines(args.out, lines())


def cmd_from_table(args) -> int:
    try:
        res = ln_T_from_table(read_density_table(args.file), args.A)
    except DomainError as exc:
        print(f"invalid A: {exc}", file=sys.stderr)
        return 2
    except TableFormatError as exc:
        where = "" if exc.line is None else f"line {exc.line}: "
        print(f"malformed density table: {where}{exc}", file=sys.stderr)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, and building it costs about a millisecond."""
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize and re-raise as code
        return int(exc.code or 0)
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())
