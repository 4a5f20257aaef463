"""Recompute perfbench/reference.csv from the independent mpmath oracles.

    python3 perfbench/make_reference.py

Every value comes from tests/brute_oracle.py, which imports nothing of the
package: ``mp_ln_T`` (tanh-sinh quadrature at 40 digits) for the quadrature
sweep grid, the reference pool, the QUAD_ORACLE points and the cold
quadrature point, and ``mp_ln_T_bessel`` for the cold Bessel point.  About
0.3 s per quadrature point, so the 3600 points take some 10 minutes on
two cores; it uses every core.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import inputs  # noqa: E402

REFERENCE = HERE / "reference.csv"


def _points():
    rows = [("grid", *p) for p in inputs.quad_sweep_points()]
    rows += [("pool", *p) for p in inputs.pool_points()]
    rows += [("oracle", *p) for p in inputs.ORACLE_POINTS]
    rows += [(f"cold_{m}", A, B, g) for m, A, B, g in inputs.COLD_POINTS]
    return rows


def _reference(row):
    import brute_oracle

    kind, A, B, g = row
    if kind == "cold_bessel":
        return brute_oracle.mp_ln_T_bessel(A, B)
    return brute_oracle.mp_ln_T(A, B, g)


def main():
    rows = _points()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        values = pool.map(_reference, rows, chunksize=16)
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("set,A,B,gamma,ln_T\n")
        for (kind, A, B, g), v in zip(rows, values):
            fh.write(f"{kind},{A!r},{B!r},{g!r},{v!r}\n")
    print(f"wrote {len(rows)} rows to {REFERENCE}")


if __name__ == "__main__":
    main()
