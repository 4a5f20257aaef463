"""Correctness checks on what the package returns.

Each check returns a list of problems; an empty list means the operation
passed.  A problem that is only a value outside the tight tolerance but
within LOOSE of its reference is a ``Miss``: the operation fails, but the
output is not wrong beyond what the program may claim as its error.  Any
other problem (an unreadable output, a bound that every exact value obeys,
a value further than LOOSE from its reference) makes the run incorrect.
Nothing here imports the package, so a fault in it cannot leak into the
judgement of its outputs.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# the QUAD_ORACLE tolerance of tests/test_transmission.py: rel 1e-9, abs 1e-9
QUAD_REL = 1e-9
QUAD_ABS = 1e-9
# closed forms against their mpmath twins, and log10_T against ln_T
FAST_REL = 1e-11
# printed inputs carry 12 significant digits
INPUT_REL = 1e-10
QUAD_ERROR_MAX = 1e-6
# the largest error the quadrature may report (QUAD_ERROR_MAX), as the
# line between a value that is imprecise and one that is wrong
LOOSE = QUAD_ERROR_MAX
LN10 = math.log(10.0)

SWEEP_KEYS = ("A", "B", "gamma", "method", "ln_T", "log10_T",
              "quad_error_ln", "planewave_ok")
_FLOAT_KEYS = ("A", "B", "gamma", "ln_T", "log10_T", "quad_error_ln")


class CheckError(ValueError):
    """An output that cannot be read as the format it claims to be."""


class Miss(str):
    """A value outside the tight tolerance but within LOOSE of its reference."""


def labelled(label, problem):
    """The problem with a label in front, still a Miss if it was one."""
    return type(problem)(f"{label}: {problem}")


def _mismatch(name, x, ref, rel, abs_=0.0):
    """The problem of the value x of name against ref, or None."""
    if _close(x, ref, rel, abs_):
        return None
    text = f"{name}={x!r} vs mpmath {ref!r}"
    return Miss(text) if _close(x, ref, LOOSE, LOOSE) else text


def _reject_constant(token):
    raise CheckError(f"non-strict JSON token {token}")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def _close(x, ref, rel, abs_=0.0):
    return abs(x - ref) <= max(rel * abs(ref), abs_)


def gamma2_window(A, B):
    """Convexity bounds [lo, hi] on ln T for gamma = 2.

    h(y) = A/y + (y-1)^2/(2B) has h'' >= 1/B everywhere and
    h'' <= kappa = 2A/y*^3 + 1/B on [y*, inf), so
    -h* - ln(2 sqrt(1 + 2AB/y*^3)) <= ln T <= -h*, with y* the real root
    of y^3 - y^2 - AB = 0 taken from numpy.roots.
    """
    roots = np.roots([1.0, -1.0, 0.0, -A * B])
    y = float(roots[np.argmin(np.abs(roots.imag))].real)
    h = A / y + (y - 1.0) ** 2 / (2.0 * B)
    return -h - math.log(2.0 * math.sqrt(1.0 + 2.0 * A * B / y ** 3)), -h


def check_quad_value(A, B, gamma, ln_T, quad_error_ln, ref):
    """A quadrature ln T against its mpmath reference and its hard bounds."""
    if not isinstance(ln_T, float) or not math.isfinite(ln_T):
        return [f"ln_T={ln_T!r} is not a finite number"]
    problems = []
    miss = _mismatch("ln_T", ln_T, ref, QUAD_REL, QUAD_ABS)
    if miss:
        problems.append(miss)
    # half the density sits at y >= 1, where exp(-A/y) >= e^-A
    if not (-A + math.log(0.49) <= ln_T <= 0.0):
        problems.append(f"ln_T={ln_T!r} outside [-A + ln 0.49, 0]")
    if quad_error_ln is None or not quad_error_ln < QUAD_ERROR_MAX:
        problems.append(f"quad_error_ln={quad_error_ln!r} not < {QUAD_ERROR_MAX}")
    if gamma == 2.0:
        lo, hi = gamma2_window(A, B)
        slack = max(QUAD_REL * abs(hi), QUAD_ABS)
        if not (lo - slack <= ln_T <= hi + slack):
            problems.append(f"ln_T={ln_T!r} outside convexity window [{lo!r}, {hi!r}]")
    return problems


def check_fast_value(method, ln_T, ref):
    """A closed-form ln T against the same form evaluated in mpmath."""
    miss = _mismatch(f"{method} ln_T", ln_T, ref, FAST_REL)
    return [miss] if miss else []


def _typed(key, value):
    if key in _FLOAT_KEYS:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CheckError(f"{key}={value!r} is not a number")
        value = float(value)
        if not math.isfinite(value):
            raise CheckError(f"{key}={value!r} is not finite")
        return value
    if key == "planewave_ok" and not isinstance(value, bool):
        raise CheckError(f"planewave_ok={value!r} is not a boolean")
    return value


def _csv_cell(key, text):
    if key in _FLOAT_KEYS:
        if text == "":
            return None
        try:
            return float(text)
        except ValueError:
            raise CheckError(f"{key}={text!r} is not a number") from None
    if key == "planewave_ok":
        if text not in ("true", "false"):
            raise CheckError(f"planewave_ok={text!r} is not true/false")
        return text == "true"
    return text


def parse_sweep_csv(text):
    """Rows of a sweep CSV as dicts; a row with a note is kept, flagged."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(SWEEP_KEYS):
        raise CheckError(f"unexpected CSV header {lines[:1]!r}")
    rows = []
    for cells in csv.reader(lines[1:], strict=True):
        if len(cells) not in (len(SWEEP_KEYS), len(SWEEP_KEYS) + 1):
            raise CheckError(f"CSV row with {len(cells)} cells: {cells!r}")
        row = {k: _csv_cell(k, c) for k, c in zip(SWEEP_KEYS, cells)}
        row["note"] = cells[len(SWEEP_KEYS)] if len(cells) > len(SWEEP_KEYS) else None
        rows.append(row)
    return rows


def parse_sweep_json(text):
    """Rows of a sweep JSON array as dicts, under strict JSON."""
    data = strict_json(text)
    if not isinstance(data, list):
        raise CheckError("sweep JSON is not an array")
    rows = []
    for obj in data:
        if not isinstance(obj, dict) or not set(SWEEP_KEYS) <= set(obj):
            raise CheckError(f"sweep JSON row lacks keys: {obj!r}")
        row = {k: _typed(k, obj[k]) for k in SWEEP_KEYS}
        row["note"] = obj.get("note")
        rows.append(row)
    return rows


def align_rows(expected, rows):
    """Pair each expected (A, B, gamma, method) with its row, or None.

    Rows must come in the expected order; a row whose inputs or method do
    not match the next expected point is taken as missing, so one dropped
    row costs one failed operation.  Returns (pairs, unexpected_row_count).
    """
    pairs = []
    i = 0
    for exp in expected:
        A, B, g, method = exp
        if i < len(rows):
            r = rows[i]
            if (r["method"] == method and all(
                    isinstance(r[k], float) and _close(r[k], v, INPUT_REL)
                    for k, v in (("A", A), ("B", B), ("gamma", g)))):
                pairs.append((exp, r))
                i += 1
                continue
        pairs.append((exp, None))
    return pairs, len(rows) - i


def check_sweep_row(row):
    """(errors, wrong) for any sweep row: errors are failures the program
    reported itself, wrong are outputs that contradict the checks."""
    if row["note"] is not None or row["ln_T"] is None:
        return [f"row failed: note={row['note']!r}"], []
    if row["log10_T"] is None or not _close(row["log10_T"], row["ln_T"] / LN10, FAST_REL):
        return [], [f"log10_T={row['log10_T']!r} != ln_T/ln 10 = {row['ln_T'] / LN10!r}"]
    return [], []


def check_cli_result(stdout, method_used, ref, quadrature):
    """One `transmit` process: a single strict JSON object matching the oracle."""
    try:
        obj = strict_json(stdout)
    except CheckError as exc:
        return [str(exc)]
    if not isinstance(obj, dict):
        return [f"stdout is not one JSON object: {stdout!r}"]
    if obj.get("method_used") != method_used:
        return [f"method_used={obj.get('method_used')!r}, wanted {method_used!r}"]
    ln_T = obj.get("ln_T")
    if isinstance(ln_T, bool) or not isinstance(ln_T, (int, float)):
        return [f"ln_T={ln_T!r} is not a number"]
    if quadrature:
        miss = _mismatch("ln_T", float(ln_T), ref, QUAD_REL, QUAD_ABS)
        return [miss] if miss else []
    return check_fast_value(method_used, float(ln_T), ref)
