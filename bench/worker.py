"""Benchmark worker: runs a list of queries back to back in this process.

Reads one JSON job from stdin, ``{"src", "queries", "trace"}``, and writes
one JSON report to stdout: per query its time, output (or error), then the
process's peak RSS, the most threads it had started at once, the times of
the calibration probes run every CALIBRATE_EVERY queries and, when traced,
the tracer's report.  Only the library call of a query is timed;
turning the result into text happens after the clock stops, with tracing
paused.

    python3 bench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import time
from fractions import Fraction

_threads_peak = [0]
_thread_start = threading.Thread.start


def _counting_start(self, *args, **kwargs):
    _thread_start(self, *args, **kwargs)
    _threads_peak[0] = max(_threads_peak[0], threading.active_count() - 1)


def _os_threads() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


CALIBRATE_EVERY = 16  # queries between two calibration probes


def calibration_probe() -> float:
    """Time of a fixed pure-Python integer loop that does not use angleworks;
    the fastest of three tries.  Of the probes tried, its speed followed that
    of the exact-arithmetic kernels most closely on a noisy machine."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for j in range(60_000):
            acc += j * j % 7
        best = min(best, time.perf_counter() - t)
    return best


def _beta(text):
    """Exact parameters travel as 'P/Q' strings, numeric ones as floats."""
    return Fraction(text) if isinstance(text, str) else float(text)


def _cli(aw, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = aw.cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


# Each op returns a thunk pair: the timed library call, then the untimed
# conversion of its result into JSON-able output.


def op_cli(aw, a):
    return lambda: _cli(aw, a["argv"]), lambda r: r


def op_angle_row(aw, a):
    call = lambda: aw.angle_table(a["family"], a["n"], _beta(a["beta"]))  # noqa: E731
    return call, lambda t: {"values": [_text(aw, t.value(k)) for k in range(1, t.n + 1)],
                            "provenance": [t.provenance(k) for k in range(1, t.n + 1)]}


def op_external_row(aw, a):
    fn = aw.trig_algebra.external_bI if a["family"] == "beta" else aw.trig_algebra.external_bI_tilde
    call = lambda: [fn(a["n"], k, a["alpha"]) for k in range(1, a["n"] + 1)]  # noqa: E731
    return call, lambda vals: {"values": [_text(aw, v) for v in vals]}


def op_inversion(aw, a):
    n, k, alpha = a["n"], a["k"], a["alpha"]

    def call():
        total = aw.PiNumber.zero()
        for m in range(k, n + 1):
            if a["family"] == "beta":
                term = aw.trig_algebra.external_bI(n, m, alpha) * aw.bJ_exact(m, k, alpha - m + 1)
            else:
                term = aw.trig_algebra.external_bI_tilde(n, m, alpha) * aw.bJtilde_exact(
                    m, k, alpha + m - 1)
            total = total + term * (-1) ** m
        return total

    return call, lambda v: {"value": _text(aw, v)}


def op_fvector(aw, a):
    model, d = a["model"], a["d"]
    if model == "voronoi":
        call = lambda: aw.typical_voronoi_fvector(d)  # noqa: E731
    elif model == "zerocell":
        call = lambda: aw.zero_cell_fvector(d)  # noqa: E731
    elif model == "poisson":
        alpha = a["alpha"]
        call = lambda: aw.poisson_polytope_fvector(d, alpha)  # noqa: E731
    else:
        fn = aw.beta_polytope_fvector if model == "beta" else aw.betaprime_polytope_fvector
        call = lambda: fn(a["n"], d, _beta(a["beta"]))  # noqa: E731
    return call, lambda fv: {"values": [_text(aw, v) for v in fv.values()],
                             "provenance": [fv.provenance(i) for i in range(fv.d)]}


def op_decimal(aw, a):
    def call():
        v = aw.bJ_exact(a["n"], a["k"], a["twice_beta"])
        return v, aw.to_decimal(v, a["digits"])

    return call, lambda r: {"value": _text(aw, r[0]), "decimal": r[1]}


op_cli_numeric = op_cli  # checked against exact references instead


def _mc_out(est):
    return {"mean": est.mean, "stderr": est.stderr, "trials": est.trials}


def op_mc_angle(aw, a):
    call = lambda: aw.mc_angle_sum(  # noqa: E731
        a["family"], a["n"], a["k"], a["twice_beta"] / 2, simplices=a["simplices"],
        directions=a["directions"], seed=a["seed"])
    return call, _mc_out


def op_mc_hull(aw, a):
    call = lambda: aw.mc_beta_hull_2d(a["n"], a["twice_beta"] / 2, trials=a["trials"], seed=a["seed"])  # noqa: E731
    return call, _mc_out


def op_mc_voronoi(aw, a):
    call = lambda: aw.mc_voronoi_2d(a["window"], trials=a["trials"], seed=a["seed"])  # noqa: E731
    return call, _mc_out


def op_reference(aw, a):
    """Exact values, evaluated at high precision, for the float checks."""

    def value(key):
        tag, *rest = key
        if tag == "J":
            return aw.bJ_exact(*rest)
        if tag == "Jt":
            return aw.bJtilde_exact(*rest)
        n, tb = rest
        return aw.beta_polytope_fvector(n, 2, Fraction(tb, 2)).value(0)

    call = lambda: {":".join(map(str, k)): str(value(k).evaluate(50)) for k in a["keys"]}  # noqa: E731
    return call, lambda r: r


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def _text(aw, v):
    return aw.format_pinumber(v) if isinstance(v, aw.PiNumber) else float(v)


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    threading.Thread.start = _counting_start
    import angleworks as aw
    import angleworks.cli  # noqa: F401
    import angleworks.trig_algebra  # noqa: F401

    if not os.path.realpath(aw.__file__).startswith(os.path.realpath(job["src"]) + os.sep):
        print(f"angleworks imported from {aw.__file__}, not from {job['src']}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer.install()
    results, probes = [], []
    for i, q in enumerate(job["queries"]):
        if i % CALIBRATE_EVERY == 0:
            probes.append(calibration_probe())
        res = {"id": q["id"]}
        try:
            call, convert = OPS[q["op"]](aw, q["args"])
            if tracer:
                tracer.begin_query(q["id"])
            t0 = time.perf_counter()
            value = call()
            res["seconds"] = time.perf_counter() - t0
            if tracer:
                tracer.end_query()
                tracer.active = False
            res["output"] = convert(value)
        except Exception as exc:  # a failed query is counted, the stream goes on
            res["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.active = True
        _threads_peak[0] = max(_threads_peak[0], _os_threads() - 1)
        results.append(res)
    report = {
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads_peak": _threads_peak[0],
        "probes": probes,
    }
    if tracer:
        report["trace"] = tracer.report()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
