"""Self-test of the benchmark's checks: each planted fault must show up as
a failed operation, and a clean output must pass.

    python3 -m pytest -q perfbench/test_checks.py
    python3 perfbench/test_checks.py

The sweep files are written in the CLI's format from the mpmath reference
values, so the checks are tested apart from the package they judge.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

QUAD_KEYS = ("A", "B", "gamma", "method", "ln_T", "log10_T", "quad_error_ln",
             "planewave_ok")


class Tally:
    """Stands in for run.Bench: counts operations with its record()."""

    record = run.Bench.record

    def __init__(self):
        self.attempted = self.failed = self.incorrect = self._logged = 0


def _tok(x):
    return f"{x:.11e}"


def _quad_case():
    """The 40 reference rows of the grid at A = 700, gamma = 2."""
    grid = run._load_reference()["grid"]
    rows = [r for r in grid if r[0] == 700.0 and r[2] == 2.0]
    expected = [(A, B, g, "quadrature") for A, B, g, _ in rows]
    return rows, expected


def _quad_csv(rows, ln_T_of=lambda i, v: v):
    lines = [",".join(QUAD_KEYS)]
    for i, (A, B, g, ref) in enumerate(rows):
        v = ln_T_of(i, ref)
        lines.append(",".join([_tok(A), _tok(B), _tok(g), "quadrature", _tok(v),
                               _tok(v / math.log(10.0)), _tok(1e-9), "false"]))
    return "\n".join(lines) + "\n"


def _check_quad(text, rows, expected):
    tally = Tally()
    refs = [r[3] for r in rows]

    def value_check(i, exp, row):
        return checks.check_quad_value(exp[0], exp[1], exp[2], row["ln_T"],
                                       row["quad_error_ln"], refs[i])

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        path.write_text(text, encoding="utf-8")
        run.SweepChecker().check(tally, "quad", 0, path, "csv", expected, value_check)
    return tally


def test_clean_quad_sweep_passes():
    rows, expected = _quad_case()
    tally = _check_quad(_quad_csv(rows), rows, expected)
    assert (tally.attempted, tally.failed, tally.incorrect) == (len(rows), 0, 0)


def test_perturbed_ln_T_is_a_failed_operation():
    rows, expected = _quad_case()
    text = _quad_csv(rows, lambda i, v: v * (1.0 + 1e-8) if i == 7 else v)
    tally = _check_quad(text, rows, expected)
    # within checks.LOOSE: a miss, so the run stays correct
    assert (tally.attempted, tally.failed, tally.incorrect) == (len(rows), 1, 0)


def test_ln_T_off_beyond_loose_makes_the_run_incorrect():
    rows, expected = _quad_case()
    text = _quad_csv(rows, lambda i, v: v * (1.0 + 1e-5) if i == 7 else v)
    tally = _check_quad(text, rows, expected)
    assert (tally.attempted, tally.failed, tally.incorrect) == (len(rows), 1, 1)


def test_dropped_row_is_a_failed_operation():
    rows, expected = _quad_case()
    lines = _quad_csv(rows).splitlines(keepends=True)
    del lines[1 + 12]
    tally = _check_quad("".join(lines), rows, expected)
    assert (tally.attempted, tally.failed, tally.incorrect) == (len(rows), 1, 1)


def test_row_reported_as_not_converged_is_failed_but_not_incorrect():
    rows, expected = _quad_case()
    lines = _quad_csv(rows).splitlines(keepends=True)
    cells = lines[5].rstrip("\n").split(",")
    lines[5] = ",".join(cells[:4] + ["", "", "", cells[7],
                                     "no convergence; best ln_T=-1.0"]) + "\n"
    tally = _check_quad("".join(lines), rows, expected)
    assert (tally.failed, tally.incorrect) == (1, 0)


def _fast_json(rows, token_of=_tok):
    out = []
    for A, B, g, method, v in rows:
        out.append(f'{{"A": {_tok(A)}, "B": {_tok(B)}, "gamma": {_tok(g)}, '
                   f'"method": "{method}", "ln_T": {token_of(v)}, '
                   f'"log10_T": {token_of(v / math.log(10.0))}, '
                   f'"quad_error_ln": null, "planewave_ok": false, "note": null}}')
    return "[\n  " + ",\n  ".join(out) + "\n]\n"


def _fast_case():
    oracle = run.brute_oracle()
    rows = []
    for A in (30.0, 700.0):
        for B in (1e-3, 0.1, 10.0):
            rows.append((A, B, 1.0, "bessel_gamma1", oracle.mp_ln_T_bessel(A, B)))
            rows.append((A, B, 1.0, "steepest_descent",
                         oracle.mp_ln_T_steepest(A, B, 1.0)))
    expected = [r[:4] for r in rows]
    return rows, expected


def _check_fast(text, rows, expected):
    tally = Tally()

    def value_check(i, exp, row):
        return checks.check_fast_value(exp[3], row["ln_T"], rows[i][4])

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(text, encoding="utf-8")
        run.SweepChecker().check(tally, "fast", 0, path, "json", expected, value_check)
    return tally


def test_clean_fast_sweep_passes():
    rows, expected = _fast_case()
    tally = _check_fast(_fast_json(rows), rows, expected)
    assert (tally.attempted, tally.failed) == (len(rows), 0)


def test_perturbed_closed_form_is_a_failed_operation():
    rows, expected = _fast_case()
    bad = [r[:4] + (r[4] * (1.0 + 1e-8),) if i == 3 else r for i, r in enumerate(rows)]
    tally = _check_fast(_fast_json(bad), rows, expected)
    assert (tally.failed, tally.incorrect) == (1, 0)


def test_non_strict_json_token_is_a_failed_operation():
    rows, expected = _fast_case()
    text = _fast_json(rows, lambda v: "-Infinity" if v == rows[2][4] else _tok(v))
    json.loads(text)  # the permissive parser takes it ...
    tally = _check_fast(text, rows, expected)
    assert tally.failed >= 1 and tally.incorrect >= 1  # ... the strict one does not


def test_cli_result_checks():
    ref = -579.6127775916156
    good = '{"ln_T": -5.79612777592e+02, "method_used": "quadrature"}\n'
    assert checks.check_cli_result(good, "quadrature", ref, quadrature=True) == []
    bad = good.replace("-5.79612777592e+02", _tok(ref * (1.0 + 1e-8)))
    problems = checks.check_cli_result(bad, "quadrature", ref, quadrature=True)
    assert len(problems) == 1 and isinstance(problems[0], checks.Miss)
    inf = good.replace("-5.79612777592e+02", "-Infinity")
    problems = checks.check_cli_result(inf, "quadrature", ref, quadrature=True)
    assert problems and not isinstance(problems[0], checks.Miss)


if __name__ == "__main__":
    tests = [f for n, f in sorted(globals().items()) if n.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
    print(f"{len(tests)} passed")
