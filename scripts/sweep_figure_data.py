#!/usr/bin/env python3
"""Emit the enhancement-vs-B curves: ln T against B at fixed barrier strength.

For a strong barrier (default A = 700) the packet-averaged transmission
exceeds the central plane wave's e^-A by hundreds of e-folds once the
momentum spread is finite.  One CSV row per (gamma, B) records the packet
value, the plane-wave baseline, and the gain in e-folds:

    python3 scripts/sweep_figure_data.py --out enhancement_vs_B.csv

The heavy lifting goes through the same evaluator as the CLI, so anything
this script emits is reproducible with `coulombpacket sweep`.
"""

import argparse
import csv
import math
import sys

import numpy as np

from coulombpacket.errors import ConvergenceError
from coulombpacket.transmission import BarrierQuery, evaluate_many


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--A", type=float, default=700.0)
    ap.add_argument("--gammas", type=float, nargs="+", default=[1.0, 2.0, 3.0])
    ap.add_argument("--B-min", type=float, default=1e-6)
    ap.add_argument("--B-max", type=float, default=1.0)
    ap.add_argument("--B-count", type=int, default=49)
    ap.add_argument("--out", default="enhancement_vs_B.csv")
    args = ap.parse_args(argv)

    b_vals = np.logspace(math.log10(args.B_min), math.log10(args.B_max),
                         args.B_count)
    rows = skipped = 0
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["A", "B", "gamma", "ln_T", "ln_T_planewave",
                    "gain_efolds", "method"])
        for g in args.gammas:
            best = 0.0
            queries = [BarrierQuery(args.A, float(B), g) for B in b_vals]
            for B, res in zip(b_vals, evaluate_many(queries)):
                if isinstance(res, ConvergenceError):
                    skipped += 1
                    continue
                gain = res.ln_T + args.A
                best = max(best, gain)
                w.writerow([f"{args.A:.12e}", f"{B:.12e}", f"{g:.12e}",
                            f"{res.ln_T:.12e}", f"{-args.A:.12e}",
                            f"{gain:.12e}", res.method_used])
                rows += 1
            print(f"gamma={g:g}: peak gain {best:.1f} e-folds over the "
                  f"plane wave")
    if skipped:
        print(f"skipped {skipped} points without convergence")
    print(f"wrote {rows} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
