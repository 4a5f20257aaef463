"""Command-line surface: schemas, grids, determinism, exit codes."""

import csv
import filecmp
import importlib.util
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import coulombpacket
import coulombpacket.transmission as tr
from coulombpacket.cli import RATIO_HEADER, SWEEP_HEADER, SWEEP_KEYS
from coulombpacket.errors import ConvergenceError
from coulombpacket.transmission import BarrierQuery, evaluate, evaluate_many

RESULT_KEYS = ["ln_T", "log10_T", "G", "y_star_numeric", "y_star_approx",
               "quad_error_ln", "planewave_ok", "method_used"]

SCI12 = re.compile(r"^-?\d\.\d{11}e[+-]\d+$")


def _strict_json(text, **kw):
    """json.loads that refuses the NaN/Infinity extensions."""
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=refuse, **kw)


def _fail_above(monkeypatch, b_limit):
    """Make every evaluation, by evaluate_many or by the CLI's columns, fail
    each query with B > b_limit, with partial ln_T -1 and quad_error_ln
    0.5."""
    import coulombpacket.cli as cli_mod
    real = tr._evaluate_columns

    def flaky(A, B, gamma, method):
        cols = real(A, B, gamma, method)
        for i in np.flatnonzero(B > b_limit).tolist():
            cols["ln_T"][i], cols["quad_error_ln"][i] = -1.0, 0.5
            cols["failures"][i] = "forced"
        return cols

    monkeypatch.setattr(tr, "_evaluate_columns", flaky)
    monkeypatch.setattr(cli_mod, "_evaluate_columns", flaky)


# --- transmit -------------------------------------------------------------

def test_transmit_json_schema_and_value(run_cli):
    code, out, err = run_cli("transmit", "--A", 10, "--B", 1e-6,
                             "--gamma", 2, "--method", "quad")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == RESULT_KEYS
    # nearly a delta packet: T ~ e^-10
    assert doc["log10_T"] == pytest.approx(-10.0 / math.log(10.0), abs=1e-3)
    assert doc["planewave_ok"] is True
    assert doc["method_used"] == "quadrature"
    assert doc["quad_error_ln"] < 1e-6


def test_transmit_numbers_use_12_significant_digits(run_cli):
    _, out, _ = run_cli("transmit", "--A", 10, "--B", 1e-6, "--gamma", 2)
    for key in ("ln_T", "log10_T", "G"):
        token = re.search(rf'"{key}": (\S+?)[,}}]', out).group(1)
        assert SCI12.match(token), token


def test_transmit_saddle_adds_confidence_flag(run_cli):
    code, out, _ = run_cli("transmit", "--A", 700, "--B", 0.1,
                           "--gamma", 2, "--method", "saddle")
    assert code == 0
    doc = json.loads(out)
    assert doc["method_used"] == "steepest_descent"
    assert doc["quad_error_ln"] is None
    assert doc["low_confidence"] is True       # G^(1/3) = 4.12 here


@pytest.mark.parametrize("B", [1e50, 1e6])
def test_transmit_saddle_flags_probability_above_one(run_cli, B):
    # G^(1/11) is large here, but the closed form overshoots to T > 1
    code, out, _ = run_cli("transmit", "--A", 1, "--B", B, "--gamma", 10,
                           "--method", "saddle")
    assert code == 0
    doc = json.loads(out)
    assert doc["ln_T"] > 0.0
    assert doc["low_confidence"] is True


def test_transmit_auto_picks_closed_form(run_cli):
    code, out, _ = run_cli("transmit", "--A", 700, "--B", 1e-2, "--gamma", 1)
    assert code == 0
    doc = json.loads(out)
    assert doc["method_used"] == "bessel_gamma1"
    assert doc["ln_T_asymptotic"] < doc["ln_T"] < 0.0


def test_transmit_auto_avoids_closed_form_at_small_B(run_cli):
    _, out, _ = run_cli("transmit", "--A", 700, "--B", 1e-8, "--gamma", 1)
    assert json.loads(out)["method_used"] == "quadrature"


@pytest.mark.parametrize("argv", [
    ("transmit", "--A", -5, "--B", 1e-4, "--gamma", 2),    # domain
    ("transmit", "--A", 10, "--B", 1e-4, "--gamma", 20),   # range
    ("transmit", "--A", 10, "--B", 1e-4, "--gamma", 2,
     "--method", "bessel"),                                # needs gamma = 1
    ("transmit", "--A", 10, "--B", 1e-4),                  # missing --gamma
    ("transmit", "--A", 10, "--B", 1e-4, "--gamma", 2,
     "--method", "simpson"),                               # unknown choice
])
def test_transmit_usage_errors_exit_2(run_cli, argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""


def test_repeated_main_calls_give_the_first_calls_bytes(run_cli, tmp_path):
    # main builds its parser once per process; every later call parses
    # and prints what the first one did, usage errors and files included
    import coulombpacket.cli as cli_mod

    cli_mod.build_parser.cache_clear()
    out = tmp_path / "s.csv"
    argvs = [("transmit", "--A", 700, "--B", 1e-3, "--gamma", 2),
             ("transmit", "--A", -5, "--B", 1e-4, "--gamma", 2),
             ("transmit", "--A", 10, "--B", 1e-4, "--gamma", 2,
              "--method", "simpson"),
             ("sweep", "--A", 5, 700, "--gammas", 0.5, 2, "--B-min", 1e-4,
              "--B-max", 1, "--B-count", 3, "--method", "saddle", "quad",
              "--format", "json", "--out", out),
             ("physical", "--Z", 1, "--mass-amu", 2, "--energy-eV", 1e4)]

    def run_all():
        runs = [run_cli(*argv) for argv in argvs]
        return runs, out.read_bytes()

    first = run_all()
    assert run_all() == first == run_all()
    assert cli_mod.build_parser.cache_info().misses == 1


def test_bessel_below_min_A_is_refused_with_exit_2(run_cli, tmp_path):
    # the gamma = 1 closed form needs A >= 10; the query is refused up front
    # instead of raising out of the evaluation
    code, out, err = run_cli("transmit", "--A", 5, "--B", 1e-3, "--gamma", 1,
                             "--method", "bessel")
    assert (code, out) == (2, "")
    assert err.startswith("invalid query: ") and "A >= 10" in err
    code, _, err = run_cli("sweep", "--A", 5, "--gammas", 1, "--B-min", 1e-3,
                           "--B-max", 1e-2, "--B-count", 2, "--method",
                           "bessel", "--out", tmp_path / "s.csv")
    assert code == 2
    assert err.startswith("invalid sweep: ") and "A >= 10" in err


@pytest.mark.parametrize("method", ["quad", "saddle"])
@pytest.mark.parametrize("A, B, gamma", [(1, 1e100, 10), (1e12, 1e300, 2)])
def test_overflowing_G_prints_strict_json(run_cli, method, A, B, gamma):
    code, out, err = run_cli("transmit", "--A", A, "--B", B, "--gamma", gamma,
                             "--method", method)
    assert (code, err) == (0, "")
    doc = _strict_json(out)
    assert doc["G"] is None
    if method == "quad":
        # half the packet sits at y < 0 and the rest crosses: T = 1/2
        assert doc["ln_T"] == pytest.approx(-math.log(2.0), abs=1e-11)


def test_transmit_convergence_failure_exits_3(run_cli, monkeypatch):
    import coulombpacket.cli as cli_mod

    def always_fails(queries):
        return [ConvergenceError("forced", ln_T=-12.5, quad_error_ln=0.25)
                for _ in queries]

    monkeypatch.setattr(cli_mod, "evaluate_many", always_fails)
    code, out, err = run_cli("transmit", "--A", 10, "--B", 1e-4, "--gamma", 2)
    assert code == 3
    assert out == ""
    partial = json.loads(err.splitlines()[0])   # partial result on stderr
    assert partial["ln_T"] == pytest.approx(-12.5)
    assert partial["quad_error_ln"] == pytest.approx(0.25)


def test_bessel_above_zero_exits_3_with_its_value(run_cli, tmp_path):
    # the gamma = 1 closed form at small A^2 B gives ln T = +4.46e6: a
    # failure that carries the value, where ln T = 0 used to be printed
    code, out, err = run_cli("transmit", "--A", 10, "--B", 1e-13, "--gamma",
                             1, "--method", "bessel")
    assert (code, out) == (3, "")
    partial = _strict_json(err.splitlines()[0])
    assert partial["ln_T"] == pytest.approx(4.46e6, rel=1e-3)
    assert partial["quad_error_ln"] is None
    sweep = tmp_path / "s.csv"
    assert run_cli("sweep", "--A", 10, "--gammas", 1, "--B-min", 1e-13,
                   "--B-max", 1e12, "--B-count", 5, "--method", "bessel",
                   "--out", sweep) == (0, "", "")
    first = _csv_rows(sweep)[1]
    assert first[:4] == ["1.00000000000e+01", "1.00000000000e-13",
                         "1.00000000000e+00", "bessel_gamma1"]
    assert first[4:] == ["", "", "", "true",
                         f"no convergence; best ln_T={partial['ln_T']:.11e}"]


@pytest.mark.parametrize("argv", [
    ("--A", 10, "--B", 5e-324, "--gamma", 1, "--method", "bessel"),
    ("--A", 1e150, "--B", 5e-324, "--gamma", 1, "--method", "bessel")])
def test_bessel_overflow_exits_3(run_cli, argv):
    # 2/B overflows, and A sqrt(2/B) too at A = 1e150, so the K1 argument
    # 2 sqrt(A sqrt(2/B)) is taken from split square roots; these queries
    # fail only as ln T > 0, carrying brute_oracle's value
    from brute_oracle import mp_ln_T_bessel

    code, out, err = run_cli("transmit", *argv)
    assert (code, out) == (3, "")
    first, second = err.splitlines()
    partial = _strict_json(first)
    assert partial["quad_error_ln"] is None
    assert partial["ln_T"] == pytest.approx(mp_ln_T_bessel(argv[1], 5e-324),
                                            rel=1e-11)
    assert second.startswith("no convergence: bessel_gamma1 gave ln T = ")
    assert "> 0" in second


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bessel_overflow_is_a_sweep_failure_row(run_cli, tmp_path, fmt):
    # where 2/B or A sqrt(2/B) overflows, a Bessel row has its value: a
    # failure row that notes it where it exceeds 0 (A = 10), a result row
    # where it does not (A = 1e300); every row matches brute_oracle
    from brute_oracle import mp_ln_T_bessel

    out = tmp_path / f"s.{fmt}"
    assert run_cli("sweep", "--A", 10, 1e300, "--gammas", 1, "--B-min",
                   5e-324, "--B-max", 1e-20, "--B-count", 2, "--B-spacing",
                   "linear", "--method", "bessel", "--format", fmt,
                   "--out", out) == (0, "", "")
    if fmt == "json":
        rows = [[d[k] for k in SWEEP_KEYS if k in d]
                for d in _strict_json(out.read_text(encoding="utf-8"))]
    else:
        rows = _csv_rows(out)[1:]
    assert [float(row[1]) for row in rows] == [5e-324, 1e-20] * 2
    assert [row[3] for row in rows] == ["bessel_gamma1"] * 4
    for A, row in zip((10, 10, 1e300, 1e300), rows):
        mp = mp_ln_T_bessel(A, float(row[1]))
        if A == 10:
            assert row[-1] == f"no convergence; best ln_T={mp:.11e}"
        else:
            assert len(row) == 8 and float(row[4]) == pytest.approx(
                mp, rel=1e-11)


# --- sweep ----------------------------------------------------------------

def _sweep(run_cli, out_path, *extra):
    return run_cli("sweep", "--A", 10, 100, "--gammas", 1, 2,
                   "--B-min", 1e-6, "--B-max", 1e-4, "--B-count", 3,
                   "--method", "quad", "--out", out_path, *extra)


def test_sweep_csv_grid_and_ordering(run_cli, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, err = _sweep(run_cli, out)
    assert code == 0 and err == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 2 * 3
    assert all(len(r) == 8 for r in rows)
    # A outermost, then gamma, then B ascending
    triples = [(float(r[0]), float(r[2]), float(r[1])) for r in rows]
    assert triples == sorted(triples)
    for r in rows:
        assert r[3] == "quadrature"
        assert float(r[4]) <= 0.0                        # ln_T
        assert float(r[5]) == pytest.approx(float(r[4]) / math.log(10.0),
                                            rel=1e-9)
        assert r[7] in ("true", "false")


def test_sweep_rows_recompute_exactly(run_cli, tmp_path):
    out = tmp_path / "sweep.csv"
    _sweep(run_cli, out)
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        A, B, g = float(cells[0]), float(cells[1]), float(cells[2])
        res = evaluate(BarrierQuery(A, B, g, method=cells[3]))
        # the CSV retains 12 significant digits, far inside quad_error_ln
        assert float(cells[4]) == pytest.approx(res.ln_T, rel=1e-10)
        assert abs(float(cells[4]) - res.ln_T) <= max(
            2.0 * float(cells[6]), 1e-9)


def test_sweep_deterministic_and_json_matches_csv(run_cli, tmp_path,
                                                  monkeypatch):
    _fail_above(monkeypatch, 1e-5)              # the B = 1e-4 rows fail
    a, b, j = (tmp_path / n for n in ("a.csv", "b.csv", "j.json"))
    _sweep(run_cli, a)
    _sweep(run_cli, b)
    _sweep(run_cli, j, "--format", "json")
    assert filecmp.cmp(a, b, shallow=False)     # byte-identical reruns
    # the JSON file holds the CSV's tokens cell for cell ("" <-> null);
    # parse_float=str keeps each JSON number as its literal token
    rows = [line.split(",")
            for line in a.read_text(encoding="utf-8").splitlines()[1:]]
    docs = _strict_json(j.read_text(encoding="utf-8"), parse_float=str)
    assert len(docs) == len(rows) == 12
    assert sum(len(r) == 9 for r in rows) == 4
    for cells, doc in zip(rows, docs):
        assert list(doc) == SWEEP_KEYS[:len(cells)]
        for cell, value in zip(cells, doc.values()):
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            else:
                assert cell == value


def test_sweep_json_format(run_cli, tmp_path):
    out = tmp_path / "sweep.json"
    code, _, _ = _sweep(run_cli, out, "--format", "json")
    assert code == 0
    docs = json.loads(out.read_text(encoding="utf-8"))
    assert len(docs) == 12
    for doc in docs:
        assert list(doc) == SWEEP_HEADER.split(",")
        assert isinstance(doc["ln_T"], float)
        assert isinstance(doc["planewave_ok"], bool)
        assert doc["method"] == "quadrature"


def test_sweep_records_failure_rows(run_cli, tmp_path, monkeypatch):
    _fail_above(monkeypatch, 1e-5)
    out = tmp_path / "s.csv"
    code, _, _ = run_cli("sweep", "--A", 10, "--gammas", 2,
                         "--B-min", 1e-6, "--B-max", 1e-4, "--B-count", 2,
                         "--method", "quad", "--out", out)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    good, bad = lines[1].split(","), lines[2].split(",")
    assert len(good) == 8
    # failed rows blank the numeric cells and append a note column; like
    # good rows they name the route that ran
    assert len(bad) == 9
    assert bad[3] == good[3] == "quadrature"
    assert bad[4] == bad[5] == bad[6] == ""
    assert bad[8] == "no convergence; best ln_T=-1.00000000000e+00"


def test_sweep_unwritable_path_exits_4(run_cli, tmp_path, monkeypatch):
    import coulombpacket.cli as cli_mod

    def refuse(*columns):
        raise AssertionError("evaluated before the output was opened")

    # refused before any query is evaluated
    monkeypatch.setattr(cli_mod, "_evaluate_columns", refuse)
    for out in ("/nonexistent-dir/out.csv", tmp_path):
        code, _, err = _sweep(run_cli, out)
        assert code == 4
        assert err.startswith(f"cannot write {out}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("sweep", "--A", "10", "--gammas", "2", "--B-min", "0", "--B-max", "1",
     "--out", "x.csv"),                                     # B-min <= 0
    ("sweep", "--A", "10", "--gammas", "2", "--B-min", "1e-3", "--B-max",
     "1e-4", "--out", "x.csv"),                             # min > max
    ("sweep", "--A", "10", "--gammas", "2", "--B-min", "1e-4", "--B-max",
     "1e-3", "--B-count", "1", "--out", "x.csv"),           # count < 2
    ("sweep", "--A", "10", "--gammas", "25", "--B-min", "1e-4", "--B-max",
     "1e-3", "--out", "x.csv"),                             # gamma range
    ("sweep", "--A", "10", "--gammas", "2", "--B-min", "1e-4", "--B-max",
     "1e-3", "--out", "x.csv", "--threads", "2"),           # retired option
])
def test_sweep_usage_errors_exit_2(run_cli, tmp_path, argv):
    code, _, _ = run_cli(*argv)
    assert code == 2


@pytest.mark.parametrize("command, bounds, spacing", [
    ("sweep", ("1e-3", "inf"), "log"),
    ("sweep", ("1e-3", "inf"), "linear"),
    ("sweep", ("inf", "inf"), "log"),
    ("ratio study", ("1e-3", "inf"), None),
])
def test_infinite_B_bound_exits_2_naming_it(run_cli, tmp_path, command,
                                            bounds, spacing):
    # refused before numpy builds a grid from it, so no RuntimeWarning
    argv = [command.split()[0], "--A", 10, "--gammas", 2, "--B-min", bounds[0],
            "--B-max", bounds[1], "--out", tmp_path / "x.csv"]
    if spacing:
        argv += ["--B-spacing", spacing]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(*argv)
    name = "min" if bounds[0] == "inf" else "max"
    assert code == 2
    assert err == (f"invalid {command}: B grid requires a finite "
                   f"--B-{name}, got inf\n")


def test_invalid_grid_reports_its_first_invalid_query(run_cli, tmp_path):
    # the grid is checked without building every query; the message must
    # still be that of the first invalid query in the documented order
    from coulombpacket.cli import METHOD_FLAGS, _b_values
    from coulombpacket.errors import DomainError, RangeError

    rng = np.random.default_rng(15)
    A_pool = [-1.0, 0.0, 5.0, 10.0, 700.0, math.inf, math.nan]
    g_pool = [0.05, 1.0, 2.0, 25.0, -1.0, math.nan]
    b_pool = [(1e-3, 1.0), (1e-300, math.inf), (1e-3, 1.7e308)]
    out = tmp_path / "s.csv"
    for _ in range(200):
        A_vals, gammas, methods = (
            list(rng.choice(pool, rng.integers(1, 4), replace=False))
            for pool in (A_pool, g_pool, sorted(METHOD_FLAGS)))
        b_min, b_max = b_pool[rng.integers(len(b_pool))]
        spacing = ("log", "linear")[rng.integers(2)]
        try:
            b_vals = _b_values(b_min, b_max, 4, spacing)
            [BarrierQuery(A, float(B), g, METHOD_FLAGS[m]) for A in A_vals
             for g in gammas for B in b_vals for m in methods]
            continue
        except (DomainError, RangeError) as exc:
            expected = f"invalid sweep: {exc}\n"
        with np.errstate(all="ignore"):
            code, _, err = run_cli(
                "sweep", "--A", *A_vals, "--gammas", *gammas, "--B-min",
                b_min, "--B-max", b_max, "--B-count", 4, "--B-spacing",
                spacing, "--method", *methods, "--out", out)
        assert (code, err) == (2, expected)
    assert not out.exists()


def test_query_validity_splits_into_B_and_the_rest():
    # cli._grid checks each B once and each (A, gamma, method) once; that is
    # exact only while no check of BarrierQuery ties B to the other fields
    from coulombpacket.errors import DomainError, RangeError
    from coulombpacket.transmission import METHODS

    def ok(*fields):
        try:
            BarrierQuery(*fields)
        except (DomainError, RangeError):
            return False
        return True

    for A in (-1.0, 0.0, 5.0, 10.0, 700.0, math.inf, math.nan):
        for g in (0.05, 1.0, 2.0, 25.0, -1.0, math.nan):
            for m in METHODS:
                for B in (-1.0, 0.0, 1e-300, 1e-3, 1.7e308, math.inf,
                          math.nan):
                    assert ok(A, B, g, m) == (ok(10.0, B, 2.0, "auto")
                                              and ok(A, 1e-3, g, m))


def test_sweep_linear_spacing(run_cli, tmp_path):
    out = tmp_path / "lin.csv"
    code, _, _ = run_cli("sweep", "--A", 10, "--gammas", 2,
                         "--B-min", 0.1, "--B-max", 0.3, "--B-count", 3,
                         "--B-spacing", "linear", "--method", "quad",
                         "--out", out)
    assert code == 0
    bs = [float(l.split(",")[1])
          for l in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert bs == pytest.approx([0.1, 0.2, 0.3], rel=1e-12)


# --- streaming: chunks, memory, all-or-nothing output ----------------------

MIXED_GRID = ("sweep", "--A", 700, 3000, "--gammas", 1, "--B-min", 1e-6,
              "--B-max", 1e-2, "--B-count", 5, "--method", "bessel", "saddle")
QUAD_GRID = ("sweep", "--A", 10, 100, "--gammas", 1, 2, "--B-min", 1e-6,
             "--B-max", 1e-4, "--B-count", 3, "--method", "quad")
RATIO_GRID = ("ratio", "--A", 700, "--gammas", 1, 2, "--B-min", 1e-6,
              "--B-max", 1e-4, "--B-count", 5)


@pytest.mark.parametrize("forced", [False, True])
def test_chunk_boundaries_leave_no_trace(run_cli, tmp_path, monkeypatch,
                                         forced):
    # 20 mixed rows (a multiple of 5), 12 quad rows, 10 ratio points, each
    # chunk of which is evaluated twice, once per route
    import coulombpacket.cli as cli_mod
    if forced:
        _fail_above(monkeypatch, 2e-5)          # rows of each grid fail
    inner, sizes = cli_mod._evaluate_columns, []

    def recording(A, B, gamma, method):
        sizes.append(len(A))
        return inner(A, B, gamma, method)

    monkeypatch.setattr(cli_mod, "_evaluate_columns", recording)
    runs = [(MIXED_GRID, "csv", 20, 1), (MIXED_GRID, "json", 20, 1),
            (QUAD_GRID, "csv", 12, 1), (QUAD_GRID, "json", 12, 1),
            (RATIO_GRID, None, 10, 2)]
    for argv, fmt, count, calls in runs:
        extra = () if fmt is None else ("--format", fmt)
        texts = []
        for chunk in (1, 5, 10**6):
            monkeypatch.setattr(cli_mod, "CHUNK", chunk)
            sizes.clear()
            out = tmp_path / f"{chunk}.out"
            assert run_cli(*argv, *extra, "--out", out) == (0, "", "")
            full, rest = divmod(count, min(chunk, count))
            chunks = [min(chunk, count)] * full + [rest] * (rest > 0)
            assert sizes == [c for c in chunks for _ in range(calls)]
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2], (argv, fmt)
        if fmt == "json":
            assert len(_strict_json(texts[0].decode())) == count
        failures = texts[0].count(b"no convergence")
        assert (failures > 0) is forced


@pytest.mark.parametrize("route", ["quadrature", "steepest_descent"])
def test_ratio_point_fails_where_either_route_fails(run_cli, tmp_path,
                                                    monkeypatch, route):
    # the rows with B > 2e-5 fail on one route alone, over chunks of 3
    import coulombpacket.cli as cli_mod
    real = cli_mod._evaluate_columns

    def flaky(A, B, gamma, method):
        cols = real(A, B, gamma, method)
        if tr.METHODS[method[0]] == route:
            cols["failures"].update(
                (i, "forced") for i in np.flatnonzero(B > 2e-5).tolist())
        return cols

    monkeypatch.setattr(cli_mod, "_evaluate_columns", flaky)
    monkeypatch.setattr(cli_mod, "CHUNK", 3)
    out = tmp_path / "ratio.csv"
    assert run_cli(*RATIO_GRID, "--out", out) == (0, "", "")
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    failed = [r.endswith(",,,no convergence") for r in rows]
    assert failed == [float(r.split(",")[1]) > 2e-5 for r in rows]
    assert failed.count(True) == 4


# (A values, gammas, (B-min, B-max, B-count), methods): gamma = 1 on every
# route, with Bessel failures at small A^2 B, and gamma != 1 on the rest
EQUIVALENCE_GRIDS = [
    ((10.0, 700.0), (1.0,), (1e-12, 1.0, 5), ("auto", "bessel", "saddle",
                                              "quad")),
    ((5.0, 700.0), (0.5, 2.0), (1e-6, 10.0, 4), ("auto", "saddle", "quad")),
]


def _sweep_through_results(A_vals, gammas, b_vals, methods, json):
    """A sweep file rendered row by row from evaluate_many's results, each
    cell through _token, as sweep rendered it before it went by columns."""
    from coulombpacket.cli import METHOD_FLAGS, _render_json, _token

    queries = [BarrierQuery(A, float(B), g, METHOD_FLAGS[m]) for A in A_vals
               for g in gammas for B in b_vals for m in methods]
    rows = []
    for q, res in zip(queries, evaluate_many(queries)):
        if isinstance(res, ConvergenceError):
            rows.append((q.A, q.B, q.gamma, tr.route(q), None, None, None,
                         tr.planewave_validity(q.A, q.B)[1],
                         f"no convergence; best ln_T={_token(res.ln_T)}"))
        else:
            rows.append((q.A, q.B, q.gamma, res.method_used, res.ln_T,
                         res.log10_T, res.quad_error_ln, res.planewave_ok))
    if json:
        return ("[\n" + ",\n".join("  " + _render_json(zip(SWEEP_KEYS, row))
                                    for row in rows) + "\n]\n")
    return "".join(line + "\n" for line in [SWEEP_HEADER] + [
        ",".join(map(_token, row)) for row in rows])


@pytest.mark.parametrize("forced", [False, True])
def test_columns_render_as_evaluate_many_results(run_cli, tmp_path,
                                                 monkeypatch, forced):
    # the chunk's columns, rendered one % per run of rows, give the bytes of
    # rendering each result through _token, at any chunk size
    import coulombpacket.cli as cli_mod
    if forced:
        _fail_above(monkeypatch, 1e-3)          # rows of every route fail
    out = tmp_path / "sweep.out"
    for A_vals, gammas, (b_min, b_max, count), methods in EQUIVALENCE_GRIDS:
        b_vals = cli_mod._b_values(b_min, b_max, count)
        for fmt in ("csv", "json"):
            expected = _sweep_through_results(A_vals, gammas, b_vals,
                                              methods, fmt == "json")
            failed = expected.count("no convergence")
            assert failed > 0 if forced or "bessel" in methods else not failed
            for chunk in (1, 5, 10**6):
                monkeypatch.setattr(cli_mod, "CHUNK", chunk)
                assert run_cli("sweep", "--A", *A_vals, "--gammas", *gammas,
                               "--B-min", b_min, "--B-max", b_max,
                               "--B-count", count, "--method", *methods,
                               "--format", fmt, "--out", out) == (0, "", "")
                assert out.read_text(encoding="utf-8") == expected, (
                    methods, fmt, chunk)


def test_sweep_memory_does_not_grow_with_the_grid(run_cli, tmp_path,
                                                  monkeypatch):
    # rows are evaluated, rendered and written a chunk at a time, so a
    # grid 4x (8x for ratio) larger needs about the same memory.  For
    # ratio, whose quadrature rows are slow under tracemalloc, every row
    # is evaluated by steepest descent: the table is what is measured
    import coulombpacket.cli as cli_mod

    def peak(*argv):
        out = tmp_path / "m.csv"
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run_cli(*argv, "--B-min", 1e-3, "--B-max", 10,
                       "--out", out)[0] == 0
        return tracemalloc.get_traced_memory()[1] - start

    def sweep(A_vals, count):
        return peak("sweep", "--A", *A_vals, "--gammas", 2, "--B-count",
                    count, "--method", "saddle")

    def ratio(gammas, count):
        return peak("ratio", "--gammas", *gammas, "--B-count", count)

    real = cli_mod._evaluate_columns
    monkeypatch.setattr(cli_mod, "_evaluate_columns", lambda A, B, g, m: real(
        A, B, g, np.full_like(m, tr.METHODS.index("steepest_descent"))))
    sweep((10,), 50)                            # warm caches, untraced
    ratio((2,), 10)
    tracemalloc.start()
    try:
        small = sweep((10, 100), 1000)              # 2000 rows
        large = sweep((10, 100, 300, 700), 2000)    # 8000 rows
        ratio_small = ratio((2,), 1000)             # 2000 rows
        ratio_large = ratio((1.5, 2, 3, 4), 2000)   # 16000 rows
    finally:
        tracemalloc.stop()
    assert large < 1.5 * small, (small, large)
    assert ratio_large < 1.5 * ratio_small, (ratio_small, ratio_large)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_writes_one_string_per_chunk(run_cli, tmp_path, monkeypatch,
                                           fmt):
    # each chunk's rows reach _write_lines as one string, after the
    # table's head and before its tail; ratio writes one per chunk of
    # points too
    import coulombpacket.cli as cli_mod
    real, handed = cli_mod._write_lines, []

    def recording(path, lines):
        def record():
            for line in lines:
                handed.append(line)
                yield line
        return real(path, record())

    monkeypatch.setattr(cli_mod, "_write_lines", recording)
    out = tmp_path / f"s.{fmt}"
    rows = 2 * cli_mod.CHUNK + 1
    assert run_cli("sweep", "--A", 10, "--gammas", 2, "--B-min", 1e-3,
                   "--B-max", 10, "--B-count", rows, "--method", "saddle",
                   "--format", fmt, "--out", out) == (0, "", "")
    assert "".join(handed) == out.read_text(encoding="utf-8")
    head, *chunks, tail = handed
    assert (head, tail) == (("[\n", "\n]\n") if fmt == "json"
                            else (SWEEP_HEADER + "\n", "\n"))
    assert [c.count("steepest_descent") for c in chunks] == [
        cli_mod.CHUNK, cli_mod.CHUNK, 1]
    if fmt == "csv":
        handed.clear()
        monkeypatch.setattr(cli_mod, "CHUNK", 5)
        assert run_cli("ratio", "--gammas", 2, "--B-count", 7,
                       "--out", out) == (0, "", "")
        assert "".join(handed) == out.read_text(encoding="utf-8")
        assert handed[0] == RATIO_HEADER + "\n"
        assert [c.count("\n") for c in handed[1:]] == [5, 2]


@pytest.mark.parametrize("argv, extra", [
    (MIXED_GRID, ("--format", "csv")), (MIXED_GRID, ("--format", "json")),
    (RATIO_GRID, ()),
])
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_evaluation_leaves_no_file(run_cli, tmp_path, monkeypatch,
                                          argv, extra, error):
    import coulombpacket.cli as cli_mod
    monkeypatch.setattr(cli_mod, "CHUNK", 5)
    real, calls = cli_mod._evaluate_columns, []

    def fails_second(A, B, gamma, method):
        calls.append(len(A))
        if len(calls) == 2:
            raise error("killed")
        return real(A, B, gamma, method)

    monkeypatch.setattr(cli_mod, "_evaluate_columns", fails_second)
    new, old = tmp_path / "new.out", tmp_path / "old.out"
    old.write_bytes(b"earlier table\n")
    for out in (new, old):
        calls.clear()
        with pytest.raises(error):
            run_cli(*argv, *extra, "--out", out)
        assert calls == [5, 5]
    assert [p.name for p in tmp_path.iterdir()] == ["old.out"]
    assert old.read_bytes() == b"earlier table\n"


def test_sweep_writes_through_a_symlink(run_cli, tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert _sweep(run_cli, link)[0] == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8").startswith(SWEEP_HEADER + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                          "target.csv"]


def test_sweep_into_a_fifo_writes_in_place(run_cli, tmp_path):
    # only a regular file is replaced; a pipe or device is written through
    import threading

    out = tmp_path / "table.csv"
    assert _sweep(run_cli, out)[0] == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert _sweep(run_cli, fifo)[0] == 0
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [out.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "table.csv"]


def test_sweep_to_dev_stdout(tmp_path):
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    grid = ("sweep", "--A", "10", "--gammas", "2", "--B-min", "1e-3",
            "--B-max", "1e-2", "--B-count", "3", "--method", "saddle")
    out = tmp_path / "table.csv"
    assert _run_module(*grid, "--out", str(out)).returncode == 0
    proc = _run_module(*grid, "--out", "/dev/stdout")      # into a pipe
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == out.read_text(encoding="utf-8")


# --- ratio -----------------------------------------------------------------

def test_ratio_table(run_cli, tmp_path):
    out = tmp_path / "ratio.csv"
    code, _, _ = run_cli("ratio", "--A", 700, "--gammas", 2,
                         "--B-min", 0.1, "--B-max", 10, "--B-count", 3,
                         "--out", out)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == RATIO_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        lq, ls = float(cells[3]), float(cells[4])
        assert SCI12.match(cells[5]), cells[5]
        # R column must reproduce exp(ln_T_star - ln_T_quad)
        assert float(cells[5]) == pytest.approx(math.exp(ls - lq), rel=1e-9)
    # approximation improves with B: R drifts toward 1 down the column
    ratios = [abs(math.log(float(l.split(",")[5]))) for l in lines[1:]]
    assert ratios[0] > ratios[1] > ratios[2]


def test_ratio_renders_huge_ratios_via_logs(run_cli, tmp_path):
    # at B = 1e-5, gamma = 2 the steepest value overshoots by e^+123; the
    # R column must survive where exp() would overflow or hit zero
    out = tmp_path / "ratio.csv"
    code, _, _ = run_cli("ratio", "--A", 700, "--gammas", 2,
                         "--B-min", 1e-5, "--B-max", 1e-4, "--B-count", 2,
                         "--out", out)
    assert code == 0
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        assert SCI12.match(cells[5])
        lq, ls = float(cells[3]), float(cells[4])
        mant, exp10 = cells[5].split("e")
        log10_R = math.log10(float(mant)) + int(exp10)
        assert log10_R == pytest.approx((ls - lq) / math.log(10.0), rel=1e-9)


# --- from-table ------------------------------------------------------------

def test_from_table_matches_quadrature(run_cli, gaussian_table):
    code, out, _ = run_cli("from-table", "--file", gaussian_table, "--A", 50)
    assert code == 0
    doc = json.loads(out)
    assert doc["method_used"] == "table_trapezoid"
    assert doc["G"] is None
    lq = evaluate(BarrierQuery(50.0, 0.01, 2.0, method="quadrature")).ln_T
    assert doc["ln_T"] == pytest.approx(lq, abs=1e-5)


def test_from_table_missing_file_exits_5(run_cli, tmp_path):
    code, _, err = run_cli("from-table", "--file", tmp_path / "nope.csv",
                           "--A", 50)
    assert code == 5
    assert "malformed" in err or "no such file" in err


def test_from_table_malformed_exits_5(run_cli, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,density\n0.5,oops\n", encoding="utf-8")
    code, _, err = run_cli("from-table", "--file", bad, "--A", 50)
    assert code == 5
    assert "malformed" in err


def test_from_table_not_utf8_exits_5(run_cli, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run_cli("from-table", "--file", bad, "--A", 50)
    assert code == 5
    assert "malformed" in err and "utf-8" in err


def test_from_table_invalid_A_exits_2(run_cli, gaussian_table):
    code, _, _ = run_cli("from-table", "--file", gaussian_table, "--A", -3)
    assert code == 2


@pytest.mark.parametrize("rows", [
    ["0.5,0", "1.0,0", "1.5,0"],     # no density anywhere
    ["0,1", "1,0"],                  # all of it at y = 0, where T = 0
])
def test_from_table_without_density_above_zero_exits_5(run_cli, tmp_path,
                                                       rows):
    table = tmp_path / "t.csv"
    table.write_text("y,density\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run_cli("from-table", "--file", table, "--A", 50)
    assert (code, out) == (5, "")
    assert "no density at y > 0" in err


def test_from_table_huge_mass_message_stays_short(run_cli, tmp_path):
    # the mass, 0.5 + 2.5e307, is named in a few digits, not in 300
    table = tmp_path / "t.csv"
    table.write_text("y,density\n0.5,1\n1.0,1\n1.5,1e308\n",
                     encoding="utf-8")
    code, out, err = run_cli("from-table", "--file", table, "--A", 50)
    assert (code, out) == (5, "")
    assert "table mass 2.5e+307 exceeds 1" in err
    assert len(err) < 200


# --- physical ----------------------------------------------------------------

def test_physical_json(run_cli):
    code, out, _ = run_cli("physical", "--Z", 1, "--mass-amu",
                           "2.013553212745", "--energy-eV", 1e4)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["A", "a_over_mc", "v0_over_c", "relativistic_flag"]
    assert doc["A"] == pytest.approx(14.041121925445278, rel=1e-11)
    assert doc["a_over_mc"] == pytest.approx(0.04585061844473497, rel=1e-11)
    assert doc["relativistic_flag"] is False


def test_physical_reduced_mass_flag(run_cli):
    _, out_full, _ = run_cli("physical", "--Z", 1, "--mass-amu",
                             "2.013553212745", "--energy-eV", 1e4)
    _, out_half, _ = run_cli("physical", "--Z", 1, "--mass-amu",
                             "2.013553212745", "--energy-eV", 1e4,
                             "--reduced-mass")
    A_full = json.loads(out_full)["A"]
    A_half = json.loads(out_half)["A"]
    assert A_half == pytest.approx(A_full / math.sqrt(2.0), rel=1e-11)


def test_physical_relativistic_exits_6(run_cli):
    code, _, err = run_cli("physical", "--Z", 1, "--mass-amu",
                           "5.48579909065e-4", "--energy-eV", 1e4)
    assert code == 6
    assert "relativistic" in err


def test_physical_relativistic_message_stays_short(run_cli):
    # v0/c = 4.6e145: the message names it in a few significant digits
    code, out, err = run_cli("physical", "--Z", 1, "--mass-amu", 1,
                             "--energy-eV", 1e300)
    assert (code, out) == (6, "")
    assert "v0/c = 4.634e+145 exceeds 0.1" in err
    assert len(err) < 120


def test_physical_invalid_spec_exits_2(run_cli):
    code, _, _ = run_cli("physical", "--Z", 0, "--mass-amu", 2,
                         "--energy-eV", 1e4)
    assert code == 2


def test_physical_where_m_c2_overflows(run_cli):
    # m c^2 overflows, so v0/c comes from logs; A = 1e300 A(1, 1, 1)
    code, out, _ = run_cli("physical", "--Z", 1e300, "--mass-amu", 1e300,
                           "--energy-eV", 1e300)
    assert code == 0
    doc = json.loads(out)
    _, one, _ = run_cli("physical", "--Z", 1, "--mass-amu", 1,
                        "--energy-eV", 1)
    assert doc["A"] == pytest.approx(1e300 * json.loads(one)["A"], rel=1e-11)
    assert doc["v0_over_c"] == pytest.approx(
        json.loads(one)["v0_over_c"], rel=1e-11)


def test_physical_A_beyond_the_doubles_exits_2(run_cli):
    # A is about 9.9e602
    code, out, err = run_cli("physical", "--Z", 1e300, "--mass-amu", 1e300,
                             "--energy-eV", 1e-300)
    assert (code, out) == (2, "")
    assert "exceeds the largest double" in err


# --- output contract -------------------------------------------------------

def test_every_json_output_is_strict(run_cli, tmp_path, monkeypatch,
                                     gaussian_table):
    texts = []
    for method, gamma in (("quad", 2), ("saddle", 2), ("bessel", 1),
                          ("auto", 1)):
        code, out, _ = run_cli("transmit", "--A", 700, "--B", 1e-2,
                               "--gamma", gamma, "--method", method)
        assert code == 0
        texts.append(out)
    code, out, _ = run_cli("from-table", "--file", gaussian_table, "--A", 50)
    assert code == 0
    texts.append(out)
    code, out, _ = run_cli("physical", "--Z", 1, "--mass-amu", 2,
                           "--energy-eV", 1e4)
    assert code == 0
    texts.append(out)
    # a real failure whose partial ln_T and quad_error_ln are not finite
    code, _, err = run_cli("transmit", "--A", 1e300, "--B", 1e-20,
                           "--gamma", 1, "--method", "quad")
    assert code == 3
    texts.append(err.splitlines()[0])
    # steepest descent where G underflows to 0 and ln T overflows to +inf:
    # failure rows and a null partial result, never a bare inf
    overflow = ("--A", 1.7e308, "--gammas", 10, "--B-min", 1e-300,
                "--B-max", 1e-299, "--B-count", 2, "--method", "saddle")
    sweep = tmp_path / "inf.json"
    code, _, _ = run_cli("sweep", *overflow, "--format", "json",
                         "--out", sweep)
    assert code == 0
    texts.append(sweep.read_text(encoding="utf-8"))
    code, _, err = run_cli("transmit", "--A", 1.7e308, "--B", 1e-300,
                           "--gamma", 10, "--method", "saddle")
    assert code == 3
    texts.append(err.splitlines()[0])
    _fail_above(monkeypatch, 1e-5)
    sweep = tmp_path / "s.json"
    assert _sweep(run_cli, sweep, "--format", "json")[0] == 0
    texts.append(sweep.read_text(encoding="utf-8"))
    code, _, err = run_cli("transmit", "--A", 10, "--B", 1e-4, "--gamma", 2)
    assert code == 3
    texts.append(err.splitlines()[0])
    docs = [_strict_json(t) for t in texts]
    assert docs[-5] == docs[-3] == {"ln_T": None, "quad_error_ln": None}
    assert [(d["ln_T"], d["note"]) for d in docs[-4]] == [
        (None, "no convergence; best ln_T=inf")] * 2
    assert any(d.get("note") for d in docs[-2])     # the failure rows
    assert docs[-1] == {"ln_T": -1.0, "quad_error_ln": 0.5}


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh, strict=True))


def test_every_csv_output_parses(run_cli, tmp_path, monkeypatch):
    # success rows have a cell per header column; failure rows add the one
    # note cell that README documents
    _fail_above(monkeypatch, 1e-5)
    sweep = tmp_path / "s.csv"
    assert _sweep(run_cli, sweep)[0] == 0
    ratio = tmp_path / "r.csv"
    assert run_cli("ratio", "--A", 700, "--gammas", 2, "--B-min", 1e-6,
                   "--B-max", 1e-4, "--B-count", 3, "--out", ratio)[0] == 0
    for path, header, numeric in ((sweep, SWEEP_HEADER, slice(4, 7)),
                                  (ratio, RATIO_HEADER, slice(3, 6))):
        head, *rows = _csv_rows(path)
        assert head == header.split(",")
        assert {len(row) for row in rows} == {len(head), len(head) + 1}
        for row in rows:
            failed = len(row) == len(head) + 1
            assert row[-1].startswith("no convergence") is failed
            for cell in row[:3]:
                float(cell)                 # coordinates are always kept
            if failed:
                assert row[numeric] == ["", "", ""]
            else:
                for cell in row[numeric]:
                    float(cell)


def _readme_example(command):
    """(argv, shown output lines) of the README block `$ coulombpacket command`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").replace("\\\n", " ")
    block = re.search(rf"\n\$ coulombpacket ({command} .*?)\n```", text,
                      re.S).group(1)
    cmd, *shown = block.split("\n")
    return shlex.split(cmd), shown


def test_readme_sweep_example_bytes(run_cli, tmp_path, monkeypatch):
    # the rows come from the gamma = 1 closed form, so they are exact
    argv, shown = _readme_example("sweep")
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == (0, "", "")
    assert shown[0] == "$ head -4 sweep.csv"
    data = (tmp_path / "sweep.csv").read_bytes()
    assert data.split(b"\n")[:4] == [line.encode() for line in shown[1:]]


def test_readme_ratio_example_bytes(run_cli, tmp_path, monkeypatch):
    argv, shown = _readme_example("ratio")
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == (0, "", "")
    assert shown[0] == "$ head -2 ratio.csv"
    data = (tmp_path / "ratio.csv").read_bytes()
    assert data.split(b"\n")[:2] == [line.encode() for line in shown[1:]]


def test_readme_transmit_example_bytes(run_cli):
    argv, shown = _readme_example("transmit")
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == " ".join(line.strip() for line in shown) + "\n"


def test_readme_physical_example_bytes(run_cli):
    argv, shown = _readme_example("physical")
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == " ".join(line.strip() for line in shown) + "\n"


def test_readme_python_api_comment():
    # the comment after the first print of the README Python API example
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    m = re.search(
        r"res = evaluate\(BarrierQuery\(A=(\S+), B=(\S+), gamma=(\S+)\)\)\n"
        r"print\(res\.method_used, res\.ln_T\) +# (\S+) (\S+)\n", text)
    res = evaluate(BarrierQuery(*map(float, m.group(1, 2, 3))))
    assert (res.method_used, repr(res.ln_T)) == m.group(4, 5)


# --- scripts ----------------------------------------------------------------

def _script(name):
    """scripts/<name>.py loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ratio_study_skips_failed_rows(tmp_path, monkeypatch, capsys):
    _fail_above(monkeypatch, 1.0)               # B = 3.16 and 10 fail
    out = tmp_path / "ratio.csv"
    code = _script("ratio_study").main(["--gammas", "2", "--B-count", "5",
                                        "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "skipped 2 rows without convergence" in printed
    assert "gamma=2:" in printed


def test_sweep_figure_data_skips_failed_points(tmp_path, monkeypatch, capsys):
    script = _script("sweep_figure_data")
    _fail_above(monkeypatch, 1e-3)              # B = 1e-2 and 1 fail
    out = tmp_path / "fig.csv"
    code = script.main(["--gammas", "2", "--B-min", "1e-6", "--B-max", "1",
                        "--B-count", "4", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "skipped 2 points without convergence" in printed
    assert "wrote 2 rows" in printed
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == pytest.approx([1e-6, 1e-4])


def test_bit_diff_counts_identical_values_and_ulps():
    compare = _script("bit_diff")._compare
    one = 1.0.hex()
    assert compare([one, None], [one, None]) == (2, 0)
    assert compare([one, (-2.0).hex()],
                   [math.nextafter(1.0, 2.0).hex(),
                    math.nextafter(-2.0, -3.0).hex()]) == (0, 1)
    # across zero: the two smallest subnormals are 2 ulps apart
    assert compare([(5e-324).hex()], [(-5e-324).hex()]) == (0, 2)
    assert compare([None, one], [one, one]) == (1, None)

    # the line of a set whose ln_T moved: rows are [failed, *FIELDS], floats
    # as hex; the larger quad_error_ln of the two sides scales each move
    moves = _script("bit_diff")._moves

    def row(ln_T, err, y):
        return [False, ln_T.hex(), None if err is None else err.hex(), None,
                None if y is None else y.hex(), None, None, True, None,
                "quadrature"]

    base = [row(-1.0, 1e-10, 2.0), row(-2.0, 1e-10, 3.0),
            row(-3.0, 2e-10, None)]
    new = [row(-1.0, 1e-10, 2.0), row(-2.0 + 5e-11, 2e-10, 3.0),
           row(-3.0 - 1e-10, 1e-10, None)]
    new[1][4] = math.nextafter(3.0, 4.0).hex()
    new[1][4] = math.nextafter(float.fromhex(new[1][4]), 4.0).hex()
    assert moves("grid", base, new) == (
        "  grid: 2 ln_T moved, largest |delta| / quad_error_ln 0.5, "
        "largest y_star_numeric move 2 ulp")
    assert moves("grid", base, base) is None
    # a moved value with no estimate on either side, and a y* that
    # appears on one side only
    new[2][2] = base[2][2] = None
    new[0][4] = None
    assert moves("fast", base, new) == (
        "  fast: 2 ln_T moved, largest |delta| / quad_error_ln n/a, "
        "largest y_star_numeric move n/a ulp")


def test_bit_diff_moment_line_keeps_infinite_values_apart():
    # rows are [failed, moment as hex]; an inf that became finite is counted,
    # not measured in ulps or relative to the finite side
    line = _script("bit_diff")._moment_line
    base = [[False, (1.0).hex()], [False, (2.0).hex()],
            [False, math.inf.hex()], [True, None]]
    new = [[False, (1.0).hex()], [False, math.nextafter(2.0, 3.0).hex()],
           [False, (1.7e308).hex()], [True, None]]
    assert line(base, base) == (True, (
        "moments: 4 of 4 bit-identical, largest finite difference 0 ulp, "
        "relative 0; inf base/new 1/1, failed base/new 1/1"))
    assert line(base, new) == (False, (
        "moments: 2 of 4 bit-identical, largest finite difference 1 ulp, "
        "relative 2.2e-16; inf base/new 1/0, failed base/new 1/1"))


# --- validate ---------------------------------------------------------------

def test_validate_reports_every_check(run_cli):
    code, out, _ = run_cli("validate")
    lines = out.splitlines()
    summary = lines[-1]
    m = re.match(r"^(\d+)/(\d+) checks passed$", summary)
    assert m and int(m.group(2)) == 10
    assert len(lines) == 11
    assert all(re.match(r"^(PASS|FAIL)  \S+", l) for l in lines[:-1])
    # exit code mirrors the printed tally
    assert code == (0 if m.group(1) == m.group(2) else 1)


def test_validate_missing_targets_exit_1(run_cli, tmp_path):
    code, out, err = run_cli("validate", "--targets", tmp_path / "gone.json")
    assert code == 1
    assert "could not run" in err


def test_validate_unreadable_targets_exit_1(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated", encoding="utf-8")
    code, _, err = run_cli("validate", "--targets", bad)
    assert code == 1
    assert "could not run" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "no-tables"])
def test_validate_targets_that_cannot_be_used_exit_1(run_cli, tmp_path,
                                                     kind):
    bad = tmp_path / "targets"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe" if kind == "not-utf8" else b"{}")
    code, out, err = run_cli("validate", "--targets", bad)
    assert (code, out) == (1, "")
    assert err.startswith("validation could not run")
    if kind == "no-tables":
        assert "lack gamma1_closed_form, enhancement" in err


# --- packaging ----------------------------------------------------------

def _run_python(*argv):
    """A fresh interpreter that imports the package these tests import."""
    src = str(Path(coulombpacket.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def _run_module(*argv):
    """`python -m coulombpacket` on the package these tests import."""
    return _run_python("-m", "coulombpacket", *argv)


def test_module_entrypoint_runs():
    proc = _run_module("physical", "--Z", "1", "--mass-amu", "2.013553212745",
                       "--energy-eV", "1e4")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["A"] == pytest.approx(14.0411219254,
                                                         rel=1e-9)


def test_quad_transmit_loads_no_scipy(tmp_path):
    # a fresh interpreter: no command loads scipy, on any route; validate
    # runs central_moment through the packet identities check
    code = """if True:
        import json
        import sys
        from coulombpacket import cli

        runs = [
            ["transmit", "--A", "700", "--B", "1e-3", "--gamma", "2",
             "--method", "quad"],
            ["transmit", "--A", "700", "--B", "1e-2", "--gamma", "1",
             "--method", "bessel"],
            ["sweep", "--A", "10", "700", "--gammas", "1", "--B-min", "1e-13",
             "--B-max", "1e12", "--B-count", "5", "--method", "bessel",
             "saddle", "--out", sys.argv[1]],
            ["validate"],
        ]
        for argv in runs:
            code = cli.main(argv)
            loaded = sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy")
            print(json.dumps(["after", argv[0], code, loaded]))
    """
    out = tmp_path / "sweep.csv"
    proc = _run_python("-c", code, str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    marks = [json.loads(line) for line in lines if line.startswith('["after"')]
    assert [m[1] for m in marks] == ["transmit", "transmit", "sweep",
                                    "validate"]
    assert all(loaded == [] for *_, loaded in marks)
    assert [m[2] for m in marks[:3]] == [0, 0, 0]
    quad, bessel = (_strict_json(line) for line in lines
                    if line.startswith("{"))
    assert quad["method_used"] == "quadrature"
    assert bessel["method_used"] == "bessel_gamma1"
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 20
    assert {row.split(",")[3] for row in rows} == {"bessel_gamma1",
                                                   "steepest_descent"}
    assert any(line.startswith("PASS  packet_identities") for line in lines)


def test_no_arguments_is_usage_error():
    proc = _run_module()
    assert proc.returncode == 2
