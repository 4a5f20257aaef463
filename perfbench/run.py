"""Benchmark of coulombpacket, driven only through its public surface.

    python3 perfbench/run.py --workload {quad_grid,fast_sweep} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout.  It byte-compiles src/, then
times fresh `python3 -m coulombpacket transmit` processes, and
`coulombpacket.cli.main` sweeps and `evaluate(BarrierQuery(...))` calls
made inside worker processes that hold only the package.  Every output
is checked here against mpmath values made apart from the package.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 a separate traced pass gives the per-layer ones.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "brute_oracle.py"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.csv"

# Each workload repeats whole rounds.  A round runs every phase, the
# workload's own phase most, so that every run reports every end-to-end
# metric and the share of failed operations does not depend on run length.
# The steps of the phases are interleaved, so that each timing metric, a
# median over the repeats of every step, samples the whole run: the
# machine's speed drifts over seconds.
ROUND = {
    "quad_grid": {"quad": 1, "fast": 1, "cold": 2, "setup": 2},
    "fast_sweep": {"fast": 8, "quad": 1, "cold": 2, "setup": 2},
}
PRIMARY = {"quad_grid": "quad", "fast_sweep": "fast"}
TRACE_ROUNDS = {"quad": 1, "fast": 2}
IMPORTTIME_REPEATS = 3
FAST_MP_SAMPLE = 800
LOGGED_PROBLEMS = 20

# (layer, what) for the per-layer metrics; what is calls, s or self_s
LAYER_METRICS = (
    ("specfun.log_sum_exp", "calls"), ("specfun.log_sum_exp", "s"),
    ("transmission.ln_T_quadrature", "self_s"),
    ("transmission.saddle_point_numeric", "calls"),
    ("transmission.saddle_point_numeric", "s"),
    ("packet.shape_constants", "calls"), ("packet.shape_constants", "s"),
    ("transmission.G_param", "calls"), ("transmission.G_param", "s"),
    ("transmission.BarrierQuery", "calls"), ("transmission.BarrierQuery", "s"),
    ("specfun.log_bessel_k1", "calls"), ("specfun.log_bessel_k1", "s"),
    ("transmission.ln_T_bessel_gamma1", "self_s"),
    ("transmission.ln_T_steepest", "self_s"),
    ("transmission.evaluate", "calls"), ("transmission.evaluate", "s"),
)


def _python(*args):
    return [sys.executable, *args]


class Bench:
    """One run: inputs, references, operation counts, worker processes."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.refs = _load_reference()
        self.attempted = self.failed = self.incorrect = 0
        self._logged = 0
        self._workers = []

    def start_worker(self):
        """Start a worker.py process, with a JSON-lines pipe to it."""
        proc = subprocess.Popen(
            _python(str(HERE / "worker.py")), cwd=ROOT, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._workers.append(proc)
        return proc

    def record(self, errors=(), wrong=()):
        """Count one operation.  errors are failures the program reported,
        wrong are outputs that failed a check; a wrong output that is more
        than a checks.Miss makes the run incorrect."""
        self.attempted += 1
        self.failed += bool(errors or wrong)
        self.incorrect += any(not isinstance(p, checks.Miss) for p in wrong)
        for problem in (*errors, *wrong):
            if self._logged < LOGGED_PROBLEMS:
                print(f"perfbench: {problem}", file=sys.stderr)
            self._logged += 1

    def run_child(self, argv):
        """Run argv to its end: (completed process, wall seconds)."""
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc, time.perf_counter() - t0

    def stop(self):
        """End of input stops each worker once its command is done."""
        for proc in self._workers:
            proc.stdin.close()
        for proc in self._workers:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _ask(proc, cmd):
    """One JSON line to proc, one JSON line back."""
    proc.stdin.write(json.dumps(cmd) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"perfbench: {proc.args[-1]} stopped while running {cmd}")
    return json.loads(line)


def _load_reference():
    refs = {}
    with open(REFERENCE, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            refs.setdefault(row["set"], []).append(
                tuple(float(row[k]) for k in ("A", "B", "gamma", "ln_T")))
    return refs


def _median_total(times):
    """Sum over steps of each step's median time in the run."""
    return sum(statistics.median(t) for t in times.values())


class SweepChecker:
    """Checks sweep files; a file identical to one already checked gets
    the same verdicts without checking it again."""

    def __init__(self):
        self._seen = {}

    def check(self, bench, key, code, path, fmt, expected, value_check):
        """Record one operation per expected row of the sweep file."""
        if code != 0:
            for _ in expected:
                bench.record(errors=[f"{key}: sweep exited with {code}"])
            return
        text = path.read_text(encoding="utf-8")
        seen = self._seen.get(key)
        if seen is None or seen[0] != text:
            seen = self._seen[key] = (text, self._verdicts(key, text, fmt, expected,
                                                           value_check))
        for errors, wrong in seen[1]:
            bench.record(errors, wrong)

    @staticmethod
    def _verdicts(key, text, fmt, expected, value_check):
        parse = checks.parse_sweep_csv if fmt == "csv" else checks.parse_sweep_json
        try:
            rows = parse(text)
        except checks.CheckError as exc:
            return [([], [f"{key}: {exc}"])] * len(expected)
        pairs, extra = checks.align_rows(expected, rows)
        verdicts = []
        for i, (exp, row) in enumerate(pairs):
            if row is None:
                verdicts.append(([], [f"{key}: no row for {exp}"]))
                continue
            errors, wrong = checks.check_sweep_row(row)
            if not errors:
                wrong += value_check(i, exp, row)
            verdicts.append((errors, [checks.labelled(f"{key} {exp}", w) for w in wrong]))
        verdicts += [([], [f"{key}: unexpected row"])] * extra
        return verdicts


class ColdPhase:
    """Fresh `transmit` processes, quad and bessel alternately."""

    def __init__(self, bench):
        self.bench = bench
        self.refs = {m: bench.refs[f"cold_{m}"][0][3] for m, *_ in inputs.COLD_POINTS}
        self.samples = {m: [] for m, *_ in inputs.COLD_POINTS}

    def steps(self):
        return [self._pair]

    def _pair(self):
        bench = self.bench
        for method, A, B, g in inputs.COLD_POINTS:
            proc, dt = bench.run_child(_python(
                "-m", "coulombpacket", "transmit", "--A", repr(A), "--B", repr(B),
                "--gamma", repr(g), "--method", method))
            self.samples[method].append(dt)
            if proc.returncode != 0:
                bench.record(errors=[f"transmit {method} exited with {proc.returncode}: "
                                     f"{proc.stderr[-300:]!r}"])
                continue
            wrong = checks.check_cli_result(
                proc.stdout, inputs.METHOD_NAMES[method], self.refs[method],
                quadrature=(method == "quad"))
            bench.record(wrong=[checks.labelled(f"transmit {method}", w) for w in wrong])

    def metrics(self):
        return {"cold_transmit_quad_s": (statistics.median(self.samples["quad"]), "s"),
                "cold_transmit_bessel_s": (statistics.median(self.samples["bessel"]), "s")}


class WorkerPhase:
    """A phase whose package calls run in a worker.py process of its own."""

    def __init__(self, bench):
        self.bench = bench
        self.worker = bench.start_worker()
        self.busy_s = 0.0
        self.checker = SweepChecker()

    def sweep(self, argv):
        """Run one sweep in the worker: (exit code, seconds in cli.main)."""
        r = _ask(self.worker, {"sweep": argv})
        self.busy_s += r["seconds"]
        return r["code"], r["seconds"]

    def set_traced(self, on):
        _ask(self.worker, {"trace": int(on)})

    def spans(self):
        """(spans, absent layers, seconds in outermost spans) of the worker"""
        r = _ask(self.worker, {"spans": 1})
        return r["spans"], r["absent"], r["root_s"]

    def peak_rss_mb(self):
        return _ask(self.worker, {"peak_rss": 1})["peak_rss_kib"] / 1024.0


class QuadPhase(WorkerPhase):
    """The 1600-point quadrature grid and 2012 single evaluate calls."""

    def __init__(self, bench):
        grid, pool = bench.refs["grid"], bench.refs["pool"]
        if ([p[:3] for p in grid] != inputs.quad_sweep_points()
                or [p[:3] for p in pool] != inputs.pool_points()):
            raise SystemExit("perfbench: reference.csv does not match inputs.py; "
                             "run perfbench/make_reference.py")
        super().__init__(bench)
        # one sweep per gamma: (gamma, expected rows, references)
        self.sweeps = [(gamma, [(A, B, g, "quadrature") for A, B, g, _ in rows],
                        [r[3] for r in rows])
                       for gamma in inputs.QUAD_SWEEP_GAMMAS
                       for rows in [[p for p in grid if p[2] == gamma]]]
        self.calls = [pool[i] for i in inputs.call_order(bench.seed)]
        self.calls += bench.refs["oracle"]
        self.sweep_s = {}  # gamma -> seconds of each repeat
        self.call_ms = []

    def steps(self):
        """One sweep per gamma, each followed by an equal share of the calls."""
        n, k = len(self.calls), len(self.sweeps)
        steps = []
        for i, sweep in enumerate(self.sweeps):
            steps += [lambda sweep=sweep: self._sweep(*sweep),
                      lambda i=i: self._calls(i * n // k, (i + 1) * n // k)]
        return steps

    def _sweep(self, gamma, expected, refs):
        def value_check(i, exp, row):
            A, B, g, _ = exp
            return checks.check_quad_value(A, B, g, row["ln_T"], row["quad_error_ln"],
                                           refs[i])

        out = self.bench.workdir / "quad_sweep.csv"
        code, seconds = self.sweep(inputs.quad_sweep_argv(gamma, str(out)))
        self.sweep_s.setdefault(gamma, []).append(seconds)
        self.checker.check(self.bench, f"quad sweep gamma={gamma}", code, out, "csv",
                           expected, value_check)

    def _calls(self, lo, hi):
        calls = self.calls[lo:hi]
        results = _ask(self.worker, {"calls": [c[:3] for c in calls]})["results"]
        for (A, B, g, ref), (ln_T, err, method_used, ms) in zip(calls, results):
            self.call_ms.append(ms)
            self.busy_s += 1e-3 * ms
            label = f"evaluate({A!r}, {B!r}, {g!r})"
            if ln_T is None:
                self.bench.record(errors=[f"{label}: {method_used}"])
                continue
            wrong = checks.check_quad_value(A, B, g, ln_T, err, ref)
            if method_used != "quadrature":
                wrong.append(f"method_used={method_used!r}")
            self.bench.record(wrong=[checks.labelled(label, w) for w in wrong])

    def metrics(self):
        ms = sorted(self.call_ms)
        # nearest rank; 2012 calls a round leave at least 20 above it
        p99 = ms[max(0, -(-99 * len(ms) // 100) - 1)]
        points = sum(len(expected) for _, expected, _ in self.sweeps)
        return {"quad_sweep_points_per_s": (points / _median_total(self.sweep_s),
                                            "points/s"),
                "quad_query_ms": (statistics.median(ms), "ms"),
                "quad_query_p99_ms": (p99, "ms")}


class FastPhase(WorkerPhase):
    """Bessel and steepest-descent sweeps, each written as CSV and JSON."""

    def __init__(self, bench):
        super().__init__(bench)
        self.specs = inputs.fast_sweep_specs(bench.seed)
        # rows checked against mpmath, spread over the sweeps by their size
        rng = np.random.default_rng([bench.seed, 3])
        total = sum(len(rows) for _, rows in self.specs)
        self.sample = [set(rng.choice(len(rows), FAST_MP_SAMPLE * len(rows) // total,
                                      replace=False).tolist())
                       for _, rows in self.specs]
        self.mp = {}
        self.sweep_s = {}  # (sweep, format) -> seconds of each repeat

    def _mp_ref(self, A, B, g, method):
        key = (A, B, g, method)
        if key not in self.mp:
            if method == "bessel_gamma1":
                self.mp[key] = brute_oracle().mp_ln_T_bessel(A, B)
            else:
                self.mp[key] = brute_oracle().mp_ln_T_steepest(A, B, g)
        return self.mp[key]

    def steps(self):
        return [lambda s=s: self._sweep(s) for s in range(len(self.specs))]

    def _sweep(self, s):
        argv, expected = self.specs[s]

        def value_check(i, exp, row):
            if i not in self.sample[s]:
                return []
            return checks.check_fast_value(exp[3], row["ln_T"], self._mp_ref(*exp))

        for fmt in ("csv", "json"):
            out = self.bench.workdir / f"fast{s}.{fmt}"
            code, seconds = self.sweep([*argv, "--format", fmt, "--out", str(out)])
            self.sweep_s.setdefault((s, fmt), []).append(seconds)
            self.checker.check(self.bench, f"fast sweep {s} {fmt}", code, out, fmt,
                               expected, value_check)

    def metrics(self):
        rows = 2 * sum(len(expected) for _, expected in self.specs)
        return {"fast_sweep_rows_per_s": (rows / _median_total(self.sweep_s), "rows/s")}


def brute_oracle():
    """tests/brute_oracle.py, imported on first use (it imports mpmath)."""
    if "brute_oracle" not in sys.modules:
        sys.path.insert(0, str(ORACLE.parent))
    import brute_oracle as mod
    return mod


class SetupPhase:
    """Wall time of `import coulombpacket` in a fresh interpreter."""

    CODE = ("import time; t0 = time.perf_counter(); import coulombpacket; "
            "print(repr(time.perf_counter() - t0))")

    def __init__(self, bench):
        self.bench = bench
        self.samples = []

    def steps(self):
        return [self._import]

    def _import(self):
        proc, _ = self.bench.run_child(_python("-c", self.CODE))
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: import coulombpacket failed: {proc.stderr}")
        self.samples.append(float(proc.stdout))

    def metrics(self):
        return {"setup_s": (statistics.median(self.samples), "s")}


def interleave(step_lists):
    """Merge step lists so that each one's steps spread evenly over the round."""
    keyed = []
    for steps in step_lists:
        keyed += [((i + 0.5) / len(steps), step) for i, step in enumerate(steps)]
    keyed.sort(key=lambda k: k[0])
    return [step for _, step in keyed]


def measure_imports(bench):
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc, _ = bench.run_child(_python("-X", "importtime", "-c", "import coulombpacket"))
        samples.append(tracer.parse_importtime(proc.stderr))
    return samples


PHASES = {"setup": SetupPhase, "cold": ColdPhase, "quad": QuadPhase,
          "fast": FastPhase}


def timed_run(bench, workload, seconds):
    phases = {name: PHASES[name](bench) for name in ROUND[workload]}
    steps = interleave([phases[name].steps() * repeats
                        for name, repeats in ROUND[workload].items()])
    # whole rounds, stopping where the run comes closest to --seconds
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for step in steps:
            step()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    # the peak of the process that ran the workload's own phase
    metrics = {"peak_rss_mb": (phases[PRIMARY[workload]].peak_rss_mb(), "MB")}
    for phase in phases.values():
        metrics.update(phase.metrics())
    return metrics


def traced_run(bench, workload):
    """Each step of the workload's own phase untraced, then traced; the
    per-layer metrics come from the traced steps alone."""
    phase = PHASES[PRIMARY[workload]](bench)
    plain_s = traced_s = 0.0
    steps = phase.steps()
    steps[0]()  # warm-up
    for step in steps * TRACE_ROUNDS[PRIMARY[workload]]:
        busy = phase.busy_s
        step()
        plain_s += phase.busy_s - busy
        busy = phase.busy_s
        phase.set_traced(True)
        try:
            step()
        finally:
            phase.set_traced(False)
        traced_s += phase.busy_s - busy
    spans, absent, root_s = phase.spans()
    imports = measure_imports(bench)

    metrics = {}
    for layer, what in LAYER_METRICS:
        calls, total, self_s = spans.get(layer, (0, 0.0, 0.0))
        value = {"calls": calls, "s": total, "self_s": self_s}[what]
        metrics[f"{layer}.{what}"] = (value, "count" if what == "calls" else "s")
    metrics["cli.self_s"] = (spans.get("cli.main", (0, 0.0, 0.0))[2], "s")
    for mod in tracer.IMPORTS:
        vals = [s[mod] for s in imports if mod in s]
        if not vals:
            absent.append(f"import.{mod}")
        metrics[f"import.{mod}.s"] = (statistics.median(vals) if vals else 0.0, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    metrics["trace.coverage_pct"] = (100.0 * root_s / traced_s, "%")
    if absent:
        print(f"perfbench: absent, reported as 0: {', '.join(sorted(absent))}",
              file=sys.stderr)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="coulombpacket benchmark")
    parser.add_argument("--workload", choices=sorted(PRIMARY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "coulombpacket" / "__init__.py", ORACLE, REFERENCE)
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a coulombpacket source checkout, missing "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: byte-compiling src/ failed", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    bench = None
    try:
        bench = Bench(args.seed, workdir)
        if args.trace:
            metrics = traced_run(bench, args.workload)
        else:
            metrics = timed_run(bench, args.workload, args.seconds)
    finally:
        if bench is not None:
            bench.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"operations: {bench.attempted} attempted, {bench.failed} failed, "
          f"{bench.incorrect} of them with an output wrong beyond {checks.LOOSE:g}")
    print(json.dumps({
        "correct": bench.incorrect == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
