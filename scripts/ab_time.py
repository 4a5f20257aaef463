#!/usr/bin/env python3
"""Time two source trees against each other, chunk by chunk, interleaved.

    python3 scripts/ab_time.py BASE_SRC [--src SRC] [--rounds N] [--seed S]
                               [--tasks TASK ...]

BASE_SRC and SRC (default: this checkout's src/) are directories that hold
a `coulombpacket` package, for example the src/ of a `git archive` of the
parent commit.  Each tree is imported in its own worker subprocess.  The
two workers take turns: every chunk of work runs on both sides back to
back, in an order drawn at random per chunk, so a drift in the machine's
speed lands on both sides of each pair alike.  Sequential runs of whole
benchmarks cannot resolve a change of 10-20% where the machine's speed
drifts by more than that; the ratios of interleaved chunks can.

The tasks, each split into chunks:

- evaluate:    evaluate() on the benchmark's 2000 pool points, one query
               per call, as the benchmark's single calls make them; 100
               points per chunk;
- columns:     the same calls with the engine (_de_quadrature) replaced
               by a stub that returns its recorded answers, so only the
               column path around it is timed;
- engine/pool: _de_quadrature alone on the arguments that each of those
               calls passes it; 100 calls per chunk;
- engine/grid: _de_quadrature alone on the 16-query blocks
               (transmission._BLOCK) of the eight quadrature sweeps; the
               blocks of one sweep per chunk;
- sweeps:      the eight quadrature sweeps through cli.main, writing CSV
               to a temporary file; one sweep per chunk;
- fast:        the two fast-route sweeps of the benchmark's fast_sweep
               workload at seed FAST_SEED, each as CSV and as JSON,
               through cli.main into a temporary file; one file per chunk;
- many/steepest: evaluate_many on 3000 steepest-descent queries
               log-uniform over the pool's box (gamma != 1), whose
               results carry each row's saddle y*; 1000 queries per call
               and chunk.

The engine's arguments are recorded by wrapping it while each tree
evaluates the points once, so each side replays its own.  For each task
the script prints each side's median chunk time and the median and
quartiles of the per-chunk ratio SRC/BASE_SRC; below 1 is faster.

The points come from perfbench/inputs.py, which is only read.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TASKS = ("evaluate", "columns", "engine/pool", "engine/grid", "sweeps",
         "fast", "many/steepest")
POOL_CHUNK = 100
FAST_SEED = 501
STEEPEST_SEED = 20261021
STEEPEST_SIZE = 3000
STEEPEST_CHUNK = 1000


def _worker(src):
    """Answer {"task", "chunk"} lines on stdin with {"s": seconds}, after
    one line {task: number of chunks} once set up."""
    with tempfile.TemporaryDirectory() as tmp:
        _serve(src, os.path.join(tmp, "sweep.csv"))


def _serve(src, sweep_csv):
    """Set up every task's chunks for the tree at src, then time them."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    import inputs
    from coulombpacket import cli
    from coulombpacket import transmission as tr

    where = os.path.dirname(os.path.abspath(tr.__file__))
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported coulombpacket from {where}, not {src}")
    answers = sys.stdout
    sys.stdout = sys.stderr
    real = tr._de_quadrature
    calls = []

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    queries = [tr.BarrierQuery(*p, "quadrature")
               for p in inputs.pool_points()]
    sweeps = [inputs.quad_sweep_argv(g, sweep_csv)
              for g in inputs.QUAD_SWEEP_GAMMAS]
    fast = [argv + ["--format", fmt, "--out", sweep_csv]
            for argv, _ in inputs.fast_sweep_specs(FAST_SEED)
            for fmt in ("csv", "json")]
    rng = np.random.default_rng(STEEPEST_SEED)
    box = [np.exp(rng.uniform(np.log(lo), np.log(hi), STEEPEST_SIZE))
           for lo, hi in (inputs.POOL_BOX[k] for k in ("A", "B", "gamma"))]
    steepest = [tr.BarrierQuery(float(A), float(B), float(g),
                                "steepest_descent")
                for A, B, g in zip(*box) if g != 1.0]
    tr._de_quadrature = recording
    for q in queries:
        tr.evaluate(q)
    pool_calls = calls[:]
    grid_calls = []
    for argv in sweeps:
        del calls[:]
        cli.main(argv)
        grid_calls.append(calls[:])
    tr._de_quadrature = real

    def chunks(items, size):
        return [items[i:i + size] for i in range(0, len(items), size)]

    def run_evaluate(qs):
        for q in qs:
            tr.evaluate(q)

    def run_columns(pairs):
        # one engine call per single query, answered from the recording
        answers_left = iter([out for _, (_, out) in pairs])
        tr._de_quadrature = lambda *args: next(answers_left)
        try:
            for q, _ in pairs:
                tr.evaluate(q)
        finally:
            tr._de_quadrature = real

    def run_engine(recorded):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for args, _ in recorded:
                real(*args)

    work = {
        "evaluate": [(run_evaluate, c) for c in chunks(queries, POOL_CHUNK)],
        "columns": [(run_columns, c) for c in chunks(
            list(zip(queries, pool_calls)), POOL_CHUNK)],
        "engine/pool": [(run_engine, c)
                        for c in chunks(pool_calls, POOL_CHUNK)],
        "engine/grid": [(run_engine, c) for c in grid_calls],
        "sweeps": [(cli.main, argv) for argv in sweeps],
        "fast": [(cli.main, argv) for argv in fast],
        "many/steepest": [(tr.evaluate_many, c)
                          for c in chunks(steepest, STEEPEST_CHUNK)],
    }
    for fn, arg in (w[0] for w in work.values()):
        fn(arg)
    answers.write(json.dumps({k: len(v) for k, v in work.items()}) + "\n")
    answers.flush()
    clock = time.perf_counter
    for line in sys.stdin:
        cmd = json.loads(line)
        fn, arg = work[cmd["task"]][cmd["chunk"]]
        t0 = clock()
        fn(arg)
        answers.write(json.dumps({"s": clock() - t0}) + "\n")
        answers.flush()


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_src", metavar="BASE_SRC")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--rounds", type=int, default=5,
                    help="passes over every chunk of every task")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the order of the two sides per chunk")
    ap.add_argument("--tasks", nargs="+", choices=TASKS, default=TASKS,
                    help="the tasks to time (default: all)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.base_src)
        return 0

    procs = [subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", src],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for src in (args.base_src, args.src)]
    try:
        sizes = [json.loads(p.stdout.readline() or "null") for p in procs]
        if None in sizes or sizes[0] != sizes[1]:
            raise SystemExit(f"the workers could not set up: {sizes}")
        rng = random.Random(args.seed)
        times = {task: ([], []) for task in args.tasks}
        for _ in range(args.rounds):
            for task in args.tasks:
                for chunk in range(sizes[0][task]):
                    pair = [None, None]
                    for side in rng.sample((0, 1), 2):
                        p = procs[side]
                        p.stdin.write(json.dumps(
                            {"task": task, "chunk": chunk}) + "\n")
                        p.stdin.flush()
                        pair[side] = json.loads(p.stdout.readline())["s"]
                    times[task][0].append(pair[0])
                    times[task][1].append(pair[1])
    finally:
        for p in procs:
            p.stdin.close()
            p.wait()
    print(f"{'task':13s} {'chunks':>6s}  {'base ms':>9s} {'new ms':>9s}  "
          f"{'ratio':>6s} {'q1':>6s} {'q3':>6s}")
    for task, (base, new) in times.items():
        q1, ratio, q3 = _quartiles([n / b for b, n in zip(base, new)])
        print(f"{task:13s} {len(base):6d}  {1e3 * statistics.median(base):9.3f} "
              f"{1e3 * statistics.median(new):9.3f}  {ratio:6.3f} "
              f"{q1:6.3f} {q3:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
