#!/usr/bin/env python3
"""Study the steepest-descent / quadrature ratio R = T*/T across B and gamma.

The CLI's `ratio` subcommand does the actual work (one source of truth for
the table format); this script drives it over a grid and then summarises
how far R strays from 1 per shape exponent:

    python3 scripts/ratio_study.py --out ratio_study.csv

The saddle parameter grows with B, so the asymptotics sharpen to the right
of each curve and degrade to the left; push --B-min well below 0.1 with
gamma > 1 and R leaves any sensible window (the table still renders it,
via logs).  The defaults stay inside the window the expansion is built for.
"""

import argparse
import csv
import math
import sys
from collections import defaultdict

from coulombpacket.cli import main as cli_main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--A", type=float, default=700.0)
    ap.add_argument("--gammas", type=float, nargs="+",
                    default=[1.0, 1.5, 2.0, 3.0])
    ap.add_argument("--B-min", type=float, default=0.1)
    ap.add_argument("--B-max", type=float, default=10.0)
    ap.add_argument("--B-count", type=int, default=25)
    ap.add_argument("--out", default="ratio_study.csv")
    args = ap.parse_args(argv)

    cli_argv = ["ratio", "--A", repr(args.A),
                "--B-min", repr(args.B_min), "--B-max", repr(args.B_max),
                "--B-count", str(args.B_count), "--out", args.out,
                "--gammas"] + [repr(g) for g in args.gammas]
    code = cli_main(cli_argv)
    if code != 0:
        return code

    worst = defaultdict(float)
    skipped = 0
    with open(args.out, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if not (row["ln_T_star"] and row["ln_T_quad"]):
                skipped += 1  # a "no convergence" row
                continue
            g = float(row["gamma"])
            ln_r = float(row["ln_T_star"]) - float(row["ln_T_quad"])
            worst[g] = max(worst[g], abs(ln_r))
    if skipped:
        print(f"skipped {skipped} rows without convergence")
    for g in sorted(worst):
        w = worst[g]
        if w < math.log(2.0):
            print(f"gamma={g:g}: worst |ln R| = {w:.4f} "
                  f"(R within {math.expm1(w) * 100:.1f}% of 1)")
        else:
            print(f"gamma={g:g}: worst |ln R| = {w:.1f} e-folds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
