#!/usr/bin/env python3
"""Compare ln_T and quad_error_ln bit for bit between two source trees.

    python3 scripts/bit_diff.py BASE_SRC [--src SRC]

BASE_SRC and SRC (default: this checkout's src/) are directories that hold
a `coulombpacket` package, for example the src/ of a `git archive` of the
parent commit.  Each tree is imported in its own subprocess, which
evaluates the same points with evaluate_many:

- grid:   the benchmark's 1600-point quadrature sweep grid;
- pool:   its 2000-point quadrature pool;
- oracle: the 12 QUAD_ORACLE points, by quadrature;
- fast/bessel, fast/steepest: every 20th row of its seed-501 fast
          sweeps, split by route (Bessel and steepest-descent rows).

The points come from perfbench/inputs.py, which is only read.  For each
set the script prints how many ln_T and quad_error_ln values are
bit-identical, the largest difference in ulps, and how many queries
raised ConvergenceError on each side (a failure's partial ln_T and
quad_error_ln are compared too).  It exits 0 when every value is
identical and 1 otherwise.
"""

import argparse
import json
import os
import struct
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAST_SEED = 501
FAST_EVERY = 20


def _points():
    """{set name: [(A, B, gamma, method)]}."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs

    quad = "quadrature"
    fast = [row for _, rows in inputs.fast_sweep_specs(FAST_SEED)
            for row in rows][::FAST_EVERY]
    return {
        "grid": [(*p, quad) for p in inputs.quad_sweep_points()],
        "pool": [(*p, quad) for p in inputs.pool_points()],
        "oracle": [(*p, quad) for p in inputs.ORACLE_POINTS],
        "fast/bessel": [r for r in fast if r[3] == "bessel_gamma1"],
        "fast/steepest": [r for r in fast if r[3] == "steepest_descent"],
    }


def _hex(x):
    return None if x is None else float(x).hex()


def _worker(src):
    """Print {set: [[ln_T, quad_error_ln, failed]]} for the tree at src,
    floats as hex strings."""
    sys.path.insert(0, os.path.abspath(src))
    import coulombpacket
    from coulombpacket.errors import ConvergenceError
    from coulombpacket.transmission import BarrierQuery, evaluate_many

    where = os.path.dirname(os.path.abspath(coulombpacket.__file__))
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported coulombpacket from {where}, not {src}")
    out = {}
    for name, points in _points().items():
        results = evaluate_many(BarrierQuery(A, B, g, method=m)
                                for A, B, g, m in points)
        out[name] = [[_hex(r.ln_T), _hex(r.quad_error_ln),
                      isinstance(r, ConvergenceError)] for r in results]
    json.dump(out, sys.stdout)


def _run(src):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker", src], capture_output=True, text=True)
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_src", metavar="BASE_SRC")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.base_src)
        return 0

    base, new = _run(args.base_src), _run(args.src)
    identical = True
    print(f"{'set':13s} {'points':>6s}  {'ln_T same':>9s} {'max ulp':>7s}  "
          f"{'err same':>8s} {'max ulp':>7s}  {'failed base/new':>15s}")
    for name in base:
        b, n = base[name], new[name]
        rows = []
        for col in (0, 1):
            same, worst = _compare([r[col] for r in b], [r[col] for r in n])
            rows.append((same, "n/a" if worst is None else str(worst)))
            identical &= same == len(b)
        identical &= [r[2] for r in b] == [r[2] for r in n]
        fails = f"{sum(r[2] for r in b)}/{sum(r[2] for r in n)}"
        print(f"{name:13s} {len(b):6d}  {rows[0][0]:9d} {rows[0][1]:>7s}  "
              f"{rows[1][0]:8d} {rows[1][1]:>7s}  {fails:>15s}")
    print("all bit-identical" if identical else "values differ")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
