#!/usr/bin/env python3
"""Compare every result field bit for bit between two source trees.

    python3 scripts/bit_diff.py BASE_SRC [--src SRC]

BASE_SRC and SRC (default: this checkout's src/) are directories that hold
a `coulombpacket` package, for example the src/ of a `git archive` of the
parent commit.  Each tree is imported in its own subprocess, which
evaluates each set of points but `single` and `quad/edges/one` with one
evaluate_many call, so that every route's blocks hold many queries:

- grid:   the benchmark's 1600-point quadrature sweep grid;
- pool:   its 2000-point quadrature pool;
- oracle: the 12 QUAD_ORACLE points, by quadrature;
- fast/bessel, fast/steepest: every row of the fast sweeps of seeds 501,
          502 and 611, split by route (Bessel and steepest-descent rows);
- steepest/box: 20000 points log-uniform over the pool's box, by
          steepest descent;
- steepest/edges: steepest-descent points where G underflows to 0 or
          overflows, gamma < 1 has no saddle, the saddle rounds to y = 1,
          gamma = 1, ln T > 0, or ln T overflows;
- quad/edges: quadrature on the 448-point box QUAD_EDGES, from A = 0.1
          to 1e17, B = 5e-324 to 1e300 and gamma = 0.1000001 to 10.  The
          benchmark's points reach none of _pieces' far-saddle,
          overflowing-G or subnormal-B branches; these reach all three,
          and up to A = 1e17, where queries stop at their rounding floor
          (quadrature's failures begin near A = 1e20, outside the box);
- single: the oracle points, the steepest-descent edges, and 100 points
          log-uniform over the pool's box (every fourth at gamma = 1) by
          quadrature and by steepest descent, with those of A >= 10 at
          gamma = 1 by the Bessel form; each point with its own evaluate
          call, the batch of one that `transmit`, `validate` and the
          acceptance checks take.  A raised ConvergenceError is recorded
          as evaluate_many's failures are;
- quad/edges/one: the quad/edges points, each with its own evaluate call
          as in `single`.

- moments: central_moment of order 0, 2 and 4 over MOMENT_GAMMAS x
          MOMENT_BS, and of order 2 and 4 at MOMENT_EDGES, where the
          moment is near or beyond the largest double.

The `cli` set then runs the command line of each tree in that subprocess
and compares the files it writes byte for byte:

- cli:    every fast sweep of seeds 501, 502 and 611, as CSV and as JSON;
          the eight quadrature sweeps, one per gamma; the `sweep` and
          `ratio` examples of README.md; a `--method auto` grid whose
          rows go to both routes that auto picks, as CSV and as JSON;
          three sweeps with failure rows (FAILURE_RUNS), as CSV and as
          JSON; two ratio studies with failure rows (RATIO_RUNS); and the
          standard output of `validate` and of the `transmit` example of
          README.md (the files named *.out).  The ratio studies are there
          because ratio evaluates each chunk of points once per route and
          renders each point from its two results: the first spans two
          chunks of 1024 points (and three of 512, the chunks of its
          quadrature and steepest-descent rows taken side by side), with
          21 points whose quadrature fails, and in the second steepest
          descent fails too.

The points come from perfbench/inputs.py, which is only read.  For each
set the script prints how many ln_T and quad_error_ln values are
bit-identical and the largest difference in ulps, how many results match
in every other field (G, both stationary points, planewave_ok,
low_confidence, method_used and ln_T_asymptotic), and how many queries
raised ConvergenceError on each side (a failure's partial ln_T and
quad_error_ln are compared too).  A field that differs anywhere gets a
line of its own.  For each set where ln_T moved it then prints how many
values moved, the largest |delta ln_T| over the larger of the two sides'
quad_error_ln (at most 1 means every move is within both estimates; n/a
where a moved value has none), and the largest move of y_star_numeric in
ulps.  For the moments set it prints how many values are bit-identical,
the largest difference in ulps and relative where both sides are finite,
and the infinite values and failures on each side.  For the `cli` set it prints "same" or "different" per file, and
each line that differs in a differing *.out file.  A change to
central_moment alone moves the moments set and, through the
packet_identities check, that line of validate.out, and nothing else.
The script exits 0 when every field and every file is identical and 1
otherwise.
"""

import argparse
import contextlib
import filecmp
import itertools
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAST_SEEDS = (501, 502, 611)
BOX_SEED = 20261019
BOX_SIZE = 20000
SINGLE_SEED = 20261020
SINGLE_BOX_SIZE = 100
# (A, B, gamma), each by steepest descent
STEEPEST_EDGES = (
    (0.1, 1e-300, 10.0), (1e-300, 1e-300, 0.5),    # G underflows to 0
    (1e12, 1e300, 2.0), (1.0, 1e100, 10.0),        # G overflows
    (1e300, 1e300, 0.2),
    (0.3, 1e-12, 0.8), (3.0, 1.0, 0.3),            # gamma < 1, no saddle
    (1e-3, 1e6, 0.5),
    (1.0, 1e-300, 2.0), (5e-324, 1.0, 2.0),        # saddle rounds to 1
    (700.0, 1e-4, 1.0), (700.0, 1e-8, 1.0),        # gamma = 1, G > 1, G < 1
    (1e300, 1e-300, 1.0), (1e-300, 1e300, 1.0),
    (0.1, 1e-300, 1.0),
    (1.0, 5e-324, 0.11), (0.3, 1e-12, 2.0),        # ln T > 0
    (1.7e308, 1.0, 2.0), (1.0, 1.7e308, 0.11),     # extreme saddles
    (1e5, 1e-13, 10.0), (0.1, 1e4, 0.11),
    (1.7e308, 1e-300, 10.0),                       # ln T overflows to +inf
)
# quadrature's edge box, as A x B x gamma
QUAD_EDGES = ((0.1, 1.0, 10.0, 1e3, 1e6, 1e11, 1e15, 1e17),
              (5e-324, 1e-300, 1e-13, 1e-6, 1.0, 1e4, 1e100, 1e300),
              (0.1000001, 0.5, 0.99, 1.0, 1.01, 2.0, 10.0))
# the sets whose points each get their own evaluate call
SINGLE_SETS = ("single", "quad/edges/one")
# a grid that --method auto splits between the Bessel route (gamma = 1,
# A >= 10, A^2 B >= 8) and quadrature, with points on both sides of each
AUTO_GRID = ["sweep", "--A", "5", "10", "700", "--gammas", "0.5", "1", "2",
             "--B-min", "1e-12", "--B-max", "10", "--B-count", "12",
             "--method", "auto"]
# sweeps with failure rows: steepest descent where ln T overflows to +inf;
# gamma = 1 where the Bessel form's K1 argument 2 sqrt(A sqrt(2/B)) would
# overflow; and three chunks of Bessel and steepest-descent rows, 1022 to
# an A, whose Bessel rows fail at small A^2 B, the first row of each chunk
# among them
FAILURE_RUNS = {
    "saddle-inf": ["sweep", "--A", "1.7e308", "--gammas", "10", "--B-min",
                   "1e-300", "--B-max", "1e-299", "--B-count", "2",
                   "--method", "saddle"],
    "bessel-overflow": ["sweep", "--A", "10", "1e300", "--gammas", "1",
                        "--B-min", "1e-20", "--B-max", "1e-19",
                        "--B-count", "2"],
    "chunk-edges": ["sweep", "--A", "10", "30", "100", "--gammas", "1",
                    "--B-min", "1e-13", "--B-max", "10", "--B-count", "511",
                    "--method", "bessel", "saddle"],
}
# ratio studies with failure rows: 1200 points at A = 1e20, 21 of whose
# quadrature rows fail, over two chunks; and steepest descent where ln T
# overflows to +inf
RATIO_RUNS = {
    "ratio-quad-fail": ["ratio", "--A", "1e20", "--gammas", "0.5", "2",
                            "10", "--B-min", "1e-300", "--B-max", "1e300",
                            "--B-count", "400"],
    "ratio-saddle-inf": ["ratio", "--A", "1.7e308", "--gammas", "10",
                         "--B-min", "1e-300", "--B-max", "1e-299",
                         "--B-count", "2"],
}
# central_moment's grid, and (gamma, B) whose moments of order 2 and 4
# are near or beyond the largest double
MOMENT_GAMMAS = (0.1000001, 0.11, 0.2, 0.3, 0.5, 0.7, 0.99, 1.0, 1.01, 1.5,
                 2.0, 3.0, 4.0, 7.0, 10.0)
MOMENT_BS = (1e-12, 1e-8, 1e-4, 1e-2, 1.0, 25.0, 1e4)
MOMENT_EDGES = ((10.0, 1.7e308), (2.0, 1e200), (0.11, 1e300))
FLOAT_FIELDS = ("ln_T", "quad_error_ln", "G", "y_star_numeric",
                "y_star_approx", "ln_T_asymptotic")
OTHER_FIELDS = ("planewave_ok", "low_confidence", "method_used")
FIELDS = FLOAT_FIELDS + OTHER_FIELDS


def _points():
    """{set name: [(A, B, gamma, method)]}."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import numpy as np

    import inputs

    quad, steep = "quadrature", "steepest_descent"
    fast = [row for seed in FAST_SEEDS
            for _, rows in inputs.fast_sweep_specs(seed) for row in rows]
    def log_uniform(seed, size):
        rng = np.random.default_rng(seed)
        return [[float(v) for v in np.exp(rng.uniform(np.log(lo), np.log(hi),
                                                      size))]
                for lo, hi in (inputs.POOL_BOX[k] for k in ("A", "B", "gamma"))]

    box = zip(*log_uniform(BOX_SEED, BOX_SIZE))
    A, B, gamma = log_uniform(SINGLE_SEED, SINGLE_BOX_SIZE)
    gamma[::4] = [1.0] * len(gamma[::4])
    single_box = list(zip(A, B, gamma))
    edges = [(*p, quad) for p in itertools.product(*QUAD_EDGES)]
    return {
        "grid": [(*p, quad) for p in inputs.quad_sweep_points()],
        "pool": [(*p, quad) for p in inputs.pool_points()],
        "oracle": [(*p, quad) for p in inputs.ORACLE_POINTS],
        "fast/bessel": [r for r in fast if r[3] == "bessel_gamma1"],
        "fast/steepest": [r for r in fast if r[3] == steep],
        "steepest/box": [(A, B, g, steep) for A, B, g in box],
        "steepest/edges": [(*p, steep) for p in STEEPEST_EDGES],
        "quad/edges": edges,
        "single": ([(*p, quad) for p in inputs.ORACLE_POINTS]
                   + [(*p, steep) for p in STEEPEST_EDGES]
                   + [(*p, m) for m in (quad, steep) for p in single_box]
                   + [(A, B, 1.0, "bessel_gamma1") for A, B, _ in single_box
                      if A >= 10.0]),
        "quad/edges/one": edges,
    }


def _cli_runs():
    """{file name: CLI argv without --out}, for the cli set."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs

    runs = {}
    for seed in FAST_SEEDS:
        for i, (argv, _) in enumerate(inputs.fast_sweep_specs(seed)):
            for fmt in ("csv", "json"):
                runs[f"fast-{seed}-{i}.{fmt}"] = argv + ["--format", fmt]
    for g in inputs.QUAD_SWEEP_GAMMAS:
        argv = inputs.quad_sweep_argv(g, "-")
        runs[f"quad-{g!r}.csv"] = argv[:argv.index("--out")]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read().replace("\\\n", " ")
    for command in ("sweep", "ratio", "transmit"):
        argv = shlex.split(re.search(rf"\n\$ coulombpacket ({command} .*)\n",
                                     readme).group(1))
        if command == "transmit":
            runs["readme-transmit.out"] = argv
            continue
        i = argv.index("--out")
        runs[f"readme-{command}.csv"] = argv[:i] + argv[i + 2:]
    for fmt in ("csv", "json"):
        runs[f"auto.{fmt}"] = AUTO_GRID + ["--format", fmt]
        for name, argv in FAILURE_RUNS.items():
            runs[f"{name}.{fmt}"] = argv + ["--format", fmt]
    for name, argv in RATIO_RUNS.items():
        runs[f"{name}.csv"] = argv
    runs["validate.out"] = ["validate"]
    return runs


def _hex(x):
    return None if x is None else float(x).hex()


def _worker(src, out_dir):
    """Print {set: [[failed, *FIELDS]]} for the tree at src, floats as hex
    strings; a failure has only ln_T and quad_error_ln.  Then write the
    files of the cli set into out_dir."""
    sys.path.insert(0, os.path.abspath(src))
    import coulombpacket
    from coulombpacket.errors import ConvergenceError
    from coulombpacket.transmission import (
        BarrierQuery,
        evaluate,
        evaluate_many,
    )

    where = os.path.dirname(os.path.abspath(coulombpacket.__file__))
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported coulombpacket from {where}, not {src}")
    def evaluate_one(query):
        try:
            return evaluate(query)
        except ConvergenceError as exc:
            return exc

    def moment(gamma, B, k):
        try:
            return [False, _hex(coulombpacket.central_moment(
                coulombpacket.PacketShape.from_gamma(gamma, B), k))]
        except ConvergenceError:
            return [True, None]

    out = {}
    for name, points in _points().items():
        queries = [BarrierQuery(A, B, g, method=m) for A, B, g, m in points]
        if name in SINGLE_SETS:
            results = [evaluate_one(q) for q in queries]
        else:
            results = evaluate_many(queries)
        out[name] = [[isinstance(r, ConvergenceError)]
                     + [_hex(getattr(r, f, None)) for f in FLOAT_FIELDS]
                     + [getattr(r, f, None) for f in OTHER_FIELDS]
                     for r in results]
    out["moments"] = (
        [moment(g, B, k) for g in MOMENT_GAMMAS for B in MOMENT_BS
         for k in (0, 2, 4)]
        + [moment(g, B, k) for g, B in MOMENT_EDGES for k in (2, 4)])
    from coulombpacket.cli import main as cli_main

    for name, argv in _cli_runs().items():
        path = os.path.join(out_dir, name)
        if name.endswith(".out"):
            # standard output, whatever the exit code: validate exits 1
            # while a check fails
            with open(path, "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh):
                cli_main(argv)
            continue
        code = cli_main(argv + ["--out", path])
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
    json.dump(out, sys.stdout)


def _run(src, out_dir):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker", src, "--out-dir", out_dir],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"evaluation under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _ordered(h):
    """The double of hex string h as an integer that counts ulps."""
    i = struct.unpack("<q", struct.pack("<d", float.fromhex(h)))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _compare(base, new):
    """(identical count, largest ulp difference or None if incomparable)."""
    same, worst = 0, 0
    for x, y in zip(base, new):
        if x == y:
            same += 1
        elif x is None or y is None:
            worst = None
        elif worst is not None:
            worst = max(worst, abs(_ordered(x) - _ordered(y)))
    return same, worst


def _moves(name, base, new):
    """The line that says how far ln_T moved in a set, or None where no
    value moved: the count, the largest |delta ln_T| over the larger of
    the two sides' quad_error_ln, and the largest y_star_numeric move."""
    ln_T, err, y_star = (FIELDS.index(f) + 1 for f in (
        "ln_T", "quad_error_ln", "y_star_numeric"))
    moved, worst = 0, 0.0
    for b, n in zip(base, new):
        if b[ln_T] == n[ln_T]:
            continue
        moved += 1
        errs = [float.fromhex(r[err]) for r in (b, n) if r[err] is not None]
        if worst is None or None in (b[ln_T], n[ln_T]) or not errs:
            worst = None
            continue
        delta = abs(float.fromhex(b[ln_T]) - float.fromhex(n[ln_T]))
        worst = max(worst, delta / max(errs) if max(errs) else math.inf)
    if not moved:
        return None
    _, y_ulp = _field(base, new, y_star, False)
    return (f"  {name}: {moved} ln_T moved, largest |delta| / quad_error_ln "
            f"{'n/a' if worst is None else f'{worst:.3g}'}, largest "
            f"y_star_numeric move {'n/a' if y_ulp is None else y_ulp} ulp")


def _field(base, new, col, exact):
    """(identical count, largest ulp difference or None) of column col."""
    b, n = [r[col] for r in base], [r[col] for r in new]
    if not exact:
        return _compare(b, n)
    same = sum(x == y for x, y in zip(b, n))
    return same, 0 if same == len(b) else None


def _moment_line(base, new):
    """(whether the moments set is identical, the line that says how far
    it moved): bit-identical values, the largest difference in ulps and
    relative where both sides are finite, and the infinite values and
    failures on each side."""
    b, n = [r[1] for r in base], [r[1] for r in new]
    same = sum(x == y for x, y in zip(b, n))
    finite = [(x, y) for x, y in zip(b, n) if x != y and None not in (x, y)
              and math.isfinite(float.fromhex(x) * float.fromhex(y))]
    _, ulp = _compare(*zip(*finite)) if finite else (0, 0)
    rel = max((abs(float.fromhex(y) / float.fromhex(x) - 1.0)
               for x, y in finite), default=0.0)
    inf = [sum(v == "inf" for v in side) for side in (b, n)]
    failed = [sum(r[0] for r in side) for side in (base, new)]
    # a failure is None, so a failure on one side only differs too
    return (same == len(b),
            f"moments: {same} of {len(b)} bit-identical, largest finite "
            f"difference {ulp} ulp, relative {rel:.2g}; inf base/new "
            f"{inf[0]}/{inf[1]}, failed base/new {failed[0]}/{failed[1]}")


def _changed_lines(base_path, new_path):
    """[(base line, new line)] of the lines that differ between two files,
    paired in order; a missing line is empty."""
    with open(base_path, encoding="utf-8") as fb, \
            open(new_path, encoding="utf-8") as fn:
        pairs = itertools.zip_longest(fb.read().splitlines(),
                                      fn.read().splitlines(), fillvalue="")
        return [(b, n) for b, n in pairs if b != n]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_src", metavar="BASE_SRC")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.base_src, args.out_dir)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, side) for side in ("base", "new")]
        for d in dirs:
            os.mkdir(d)
        base, new = _run(args.base_src, dirs[0]), _run(args.src, dirs[1])
        files = [(name, filecmp.cmp(*(os.path.join(d, name) for d in dirs),
                                    shallow=False))
                 for name in _cli_runs()]
        # the lines that differ in each differing standard output
        out_lines = {name: _changed_lines(*(os.path.join(d, name)
                                            for d in dirs))
                     for name, same in files
                     if name.endswith(".out") and not same}
    moments = base.pop("moments"), new.pop("moments")
    identical = True
    differing = []
    print(f"{'set':14s} {'points':>6s}  {'ln_T same':>9s} {'max ulp':>7s}  "
          f"{'err same':>8s} {'max ulp':>7s}  {'rest same':>9s}  "
          f"{'failed base/new':>15s}")
    for name in base:
        b, n = base[name], new[name]
        stats = {f: _field(b, n, col, f in OTHER_FIELDS)
                 for col, f in enumerate(FIELDS, 1)}
        failed = [r[0] for r in b], [r[0] for r in n]
        identical &= failed[0] == failed[1]
        for f, (same, worst) in stats.items():
            identical &= same == len(b)
            if same < len(b):
                differing.append((name, f, same, len(b), worst))
        rest = sum(all(x[col] == y[col] for col in range(3, len(FIELDS) + 1))
                   for x, y in zip(b, n))
        (ln_same, ln_ulp), (err_same, err_ulp) = (stats["ln_T"],
                                                  stats["quad_error_ln"])
        fails = f"{sum(failed[0])}/{sum(failed[1])}"
        print(f"{name:14s} {len(b):6d}  {ln_same:9d} "
              f"{'n/a' if ln_ulp is None else ln_ulp:>7}  {err_same:8d} "
              f"{'n/a' if err_ulp is None else err_ulp:>7}  {rest:9d}  "
              f"{fails:>15s}")
    for name, f, same, count, worst in differing:
        print(f"  {name}: {f} identical in {same} of {count}, largest "
              f"difference {'n/a' if worst is None else f'{worst} ulp'}")
    for name in base:
        line = _moves(name, base[name], new[name])
        if line:
            print(line)
    same_moments, line = _moment_line(*moments)
    identical &= same_moments
    print(line)
    print(f"cli: {sum(same for _, same in files)} of {len(files)} files "
          "byte-identical")
    for name, same in files:
        identical &= same
        print(f"  {name:22s} {'same' if same else 'different'}")
        for b, n in out_lines.get(name, ()):
            print(f"    - {b}\n    + {n}")
    print("all bit-identical" if identical else "values differ")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
