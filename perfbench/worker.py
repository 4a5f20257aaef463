"""Run the in-process steps of the benchmark in a process that holds only
the package, so that its peak RSS is the package's own.

    PYTHONPATH=src python3 perfbench/worker.py

Protocol: each stdin line is one JSON command, each answer one stdout
line of JSON.

    {"sweep": ARGV}            -> {"code": exit code, "seconds": time in cli.main}
    {"calls": [[A, B, g], ...]} -> {"results": [[ln_T, quad_error_ln,
                                   method_used, ms], ...]}; a call that
                                   raised gives [null, null, repr, ms]
    {"trace": 1 or 0}          -> install or remove the tracer; {}
    {"spans": 1}               -> {"spans", "absent", "root_s"} of the tracer
    {"peak_rss": 1}            -> {"peak_rss_kib": peak RSS of this process}

Whatever the package prints goes to stderr, so stdout carries only answers.
"""

import json
import resource
import sys
import time

import coulombpacket
from coulombpacket import cli


def _peak_rss_kib():
    """VmHWM, the peak of this process's own address space, which starts
    at exec; ru_maxrss would also count the parent's pages at the fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _calls(points):
    clock = time.perf_counter
    results = []
    for A, B, g in points:
        t0 = clock()
        try:
            # looked up on the package at each call, so that the tracer's
            # wrappers, when installed, are the functions called
            res = coulombpacket.evaluate(coulombpacket.BarrierQuery(A, B, g, "quadrature"))
        except Exception as exc:  # one failed call must not end the run
            results.append([None, None, repr(exc), 1e3 * (clock() - t0)])
            continue
        ms = 1e3 * (clock() - t0)
        results.append([res.ln_T, res.quad_error_ln, res.method_used, ms])
    return {"results": results}


def main():
    answers = sys.stdout
    sys.stdout = sys.stderr
    tracer = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if "sweep" in cmd:
            t0 = time.perf_counter()
            code = cli.main(cmd["sweep"])
            answer = {"code": code, "seconds": time.perf_counter() - t0}
        elif "calls" in cmd:
            answer = _calls(cmd["calls"])
        elif "trace" in cmd:
            if tracer is None:
                import tracer as tracer_mod
                tracer = tracer_mod.Tracer()
            if cmd["trace"]:
                tracer.install()
            else:
                tracer.uninstall()
            answer = {}
        elif "spans" in cmd:
            answer = {"spans": tracer.snapshot(), "absent": tracer.absent,
                      "root_s": tracer.root[0]}
        else:
            answer = {"peak_rss_kib": _peak_rss_kib()}
        answers.write(json.dumps(answer) + "\n")
        answers.flush()


if __name__ == "__main__":
    main()
