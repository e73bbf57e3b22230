"""angleworks benchmark harness.

    python3 bench/run.py --workload cold-queries --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``):

* ``cold-queries``: CLI-shaped exact queries, each timed around
  ``angleworks.cli.main`` in a fresh worker process;
* ``warm-sweep``: a stream of a few hundred distinct small exact library
  queries in one process whose caches start empty;
* ``float-oracle``: numeric-path and Monte Carlo queries, compared with
  exact references computed before timing starts.

The harness is a single closed-loop client: it starts one worker at a
time and waits for it.  It runs the workload's whole query list (a *pass*)
at least once, and again as long as the next pass should end within
``--seconds``.
Every answer is checked (``checks.py``); on the default seed it is also
compared with the committed golden transcript.  With ``--trace 1`` it runs
one untraced and one traced pass of the same queries and reports the
per-layer metrics instead; the full trace goes to ``bench/out/``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

SETUP_RUNS = 5  # before the passes, and as many again after them
WORKER_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples beyond the tail percentile
PROBE_CPUS = 4
#: time of worker.calibration_probe at the reference speed (a shared 2-core
#: virtual machine with Python 3.11, at its faster moments)
CALIBRATION_REF_S = 4.5e-3

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_EXTRA = {
    "series_kernel.coeff_products": "count",
    "series_kernel.max_window": "count",
    "angle_engine.residue_calls": "count",
    "angle_engine.zero_residue_ratio": "ratio",
    "angle_engine.residue_hit_ratio": "ratio",
    "angle_engine.row_hit_ratio": "ratio",
    "angle_engine.fill_s": "s",
    "trig_algebra.fourier_mul_calls": "count",
    "trig_algebra.fourier_term_products": "count",
    "trig_algebra.max_fourier_terms": "count",
    "trig_algebra.tan_algebra_s": "s",
    "trig_algebra.cache_hit_ratio": "ratio",
    "exact_scalars.max_coeff_bits": "bits",
    "quadrature.evaluations": "count",
    "quadrature.max_error_estimate": "abs",
    "montecarlo.trials": "count",
    "montecarlo.trials_per_s": "1/s",
    "trace_overhead_ratio": "ratio",
}

PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    **_LAYER_EXTRA,
}


# -- workers ------------------------------------------------------------------------


def pin_to_fastest_cpu() -> int:
    """Pin this process, and so every worker it starts, to one CPU: the
    fastest of a short probe.  The CPUs of a shared machine differ in speed,
    and a worker that lands on either would make the timings bimodal."""
    cpus = sorted(os.sched_getaffinity(0))

    def probe() -> float:
        best = math.inf
        for _ in range(5):
            t = time.perf_counter()
            sum(i * i % 7 for i in range(100_000))
            best = min(best, time.perf_counter() - t)
        return best

    speed = {}
    for cpu in cpus[:PROBE_CPUS]:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe()
    fastest = min(speed, key=speed.get)
    os.sched_setaffinity(0, {fastest})
    return fastest


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # one process at a time, single-threaded BLAS, and the CLI's own thread
    # pool capped at the CPUs this process may use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["ANGLEWORKS_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_worker(queries: list[dict], env: dict, trace: bool) -> dict:
    """One worker process over ``queries``; a crash fails all of them."""
    job = json.dumps({"src": str(SRC), "queries": queries, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=job, capture_output=True,
            text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout)
        why = f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        why = f"worker timed out after {WORKER_TIMEOUT_S} s"
    except json.JSONDecodeError as exc:
        why = f"unreadable worker report: {exc}"
    return {"results": [{"id": q["id"], "error": why} for q in queries],
            "peak_rss_mb": 0.0, "threads_peak": 0, "probes": []}


def run_pass(workload: str, queries: list[dict], env: dict, trace: bool) -> list[dict]:
    """The whole query list once; returns the worker reports."""
    if workload == "cold-queries":
        return [run_worker([q], env, trace) for q in queries]
    return [run_worker(queries, env, trace)]


def measure_setup(env: dict, runs: int) -> list[float]:
    """Times of ``import angleworks``, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import angleworks; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import angleworks failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout))
    return times


def references(queries: list[dict], env: dict) -> dict:
    """Exact values for the float checks, evaluated at 50 digits (untimed)."""
    keys = sorted({k for q in queries for k in checks.reference_keys(q)})
    if not keys:
        return {}
    report = run_worker([{"id": "references", "op": "reference", "args": {"keys": keys}}],
                        env, trace=False)
    res = report["results"][0]
    if "error" in res:
        raise RuntimeError(f"reference values failed: {res['error']}")
    return res["output"]


# -- metrics --------------------------------------------------------------------------


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(passes: list[list[dict]], setup_s: float) -> tuple[dict, dict]:
    """Query times are scaled to the reference speed: each is multiplied by
    CALIBRATION_REF_S over the median time of the run's calibration probes.
    The speed of a shared machine drifts by a third between runs a minute
    apart, and this takes the drift out while a change to angleworks moves
    the numbers by the same ratio as before (the probe does not use
    angleworks).

    A query's time is then the fastest of its passes, which filters out the
    faster wander within a run.  There is one sample per query of the mix,
    so the tail percentile (TAIL_BEYOND samples beyond it) depends only on
    the mix, whatever the number of passes."""
    probes = [x for p in passes for rep in p for x in rep["probes"]]
    scale = CALIBRATION_REF_S / statistics.median(probes)
    best: dict[str, float] = {}
    for p in passes:
        for rep in p:
            for r in rep["results"]:
                if "seconds" in r:
                    best[r["id"]] = min(r["seconds"] * scale, best.get(r["id"], math.inf))
    samples = list(best.values())
    tail_p = 100.0 * (1.0 - TAIL_BEYOND / len(samples))
    metrics = {
        "setup_s": setup_s,
        "query_p50_s": percentile(samples, 50.0),
        "query_tail_s": percentile(samples, tail_p),
        "queries_per_s": len(samples) / sum(samples),
        "peak_rss_mb": max(rep["peak_rss_mb"] for p in passes for rep in p),
    }
    return metrics, {"tail_percentile": tail_p, "samples": len(samples), "passes": len(passes),
                     "scale": scale, "probes": len(probes)}


def per_layer(reports: list[dict], untraced_s: float, traced_s: float) -> tuple[dict, dict]:
    calls, self_s, errors, counters = Counter(), Counter(), Counter(), Counter()
    maxima: dict[str, float] = {}
    caches: dict[str, Counter] = {}
    for rep in reports:
        t = rep["trace"]
        calls.update(t["calls"])
        self_s.update(t["self_s"])
        errors.update(t["errors"])
        counters.update(t["counters"])
        for k, v in t["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
        for name, info in t["caches"].items():
            caches.setdefault(name, Counter()).update(
                {k: info[k] for k in ("hits", "misses", "currsize")})

    def hit_ratio(prefixes) -> float:
        hits = sum(c["hits"] for n, c in caches.items() if n.startswith(prefixes))
        total = hits + sum(c["misses"] for n, c in caches.items() if n.startswith(prefixes))
        return hits / total if total else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = errors[layer]
    m.update({
        "series_kernel.coeff_products": counters["coeff_products"],
        "series_kernel.max_window": maxima.get("max_window", 0),
        "angle_engine.residue_calls": counters["residue_calls"],
        "angle_engine.zero_residue_ratio":
            counters["zero_residues"] / counters["residue_calls"] if counters["residue_calls"] else 0.0,
        "angle_engine.residue_hit_ratio": hit_ratio(("angle_engine.residue_rational",)),
        "angle_engine.row_hit_ratio": hit_ratio(("angle_engine._bJ_row", "angle_engine._bJtilde_row")),
        "angle_engine.fill_s": counters["fill_s"],
        "trig_algebra.fourier_mul_calls": counters["fourier_mul_calls"],
        "trig_algebra.fourier_term_products": counters["fourier_term_products"],
        "trig_algebra.max_fourier_terms": maxima.get("max_fourier_terms", 0),
        "trig_algebra.tan_algebra_s": counters["tan_algebra_s"],
        "trig_algebra.cache_hit_ratio": hit_ratio(("trig_algebra.",)),
        "exact_scalars.max_coeff_bits": maxima.get("max_coeff_bits", 0),
        "quadrature.evaluations": counters["evaluations"],
        "quadrature.max_error_estimate": maxima.get("max_error_estimate", 0.0),
        "montecarlo.trials": counters["trials"],
        "montecarlo.trials_per_s": counters["trials"] / counters["mc_s"] if counters["mc_s"] else 0.0,
        "trace_overhead_ratio": traced_s / untraced_s,
    })
    detail = {
        # one entry per worker process: per query for cold-queries
        "self_s_by_worker": [
            {"queries": [r["id"] for r in rep["results"]], "self_s": rep["trace"]["self_s"]}
            for rep in reports
        ],
        "caches": {n: dict(c) for n, c in sorted(caches.items())},
        "spans": [s for rep in reports for s in rep["trace"]["spans"]],
        "spans_dropped": sum(rep["trace"]["spans_dropped"] for rep in reports),
    }
    return m, detail


def _query_seconds(p: list[dict]) -> float:
    return sum(r.get("seconds", 0.0) for rep in p for r in rep["results"])


# -- main ------------------------------------------------------------------------------


def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the golden transcript of the default seed and exit")
    args = ap.parse_args(argv)

    if not (SRC / "angleworks" / "__init__.py").is_file():
        print(f"error: no angleworks sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_fastest_cpu()
    env = worker_env()
    try:
        setup_times = measure_setup(env, SETUP_RUNS)
        queries = workloads.GENERATORS[args.workload](args.seed)
        refs = references(queries, env)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_golden:
        if args.seed != workloads.DEFAULT_SEED:
            print("error: the golden transcript is kept for the default seed", file=sys.stderr)
            return 2
        results = [r for rep in run_pass(args.workload, queries, env, False) for r in rep["results"]]
        bad = [r["id"] for q, r in zip(queries, results) if checks.problems(q, r, refs)]
        if bad:
            print(f"error: refusing to record failing outputs: {bad[:5]}", file=sys.stderr)
            return 1
        GOLDEN.mkdir(exist_ok=True)
        golden_path(args.workload).write_text(json.dumps(
            {q["id"]: checks.transcript_entry(q, r) for q, r in zip(queries, results)},
            indent=1, sort_keys=True) + "\n")
        print(f"wrote {golden_path(args.workload)}")
        return 0

    golden = None
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads(golden_path(args.workload).read_text())

    start = time.perf_counter()
    passes = []
    if args.trace:
        passes.append(run_pass(args.workload, queries, env, False))
        passes.append(run_pass(args.workload, queries, env, True))
    else:
        # closed loop: another pass only if it should end within the budget
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(args.workload, queries, env, False))
            now = time.perf_counter()
            if now + (now - t0) > start + args.seconds:
                break

    attempted = failed = 0
    failures = []
    for p in passes:
        results = [r for rep in p for r in rep["results"]]
        for q, r in zip(queries, results):
            found = checks.problems(q, r, refs)
            if golden is not None:
                found += checks.golden_problems(q, r, golden)
            attempted += 1
            if found:
                failed += 1
                failures.append(f"{q['id']}: {'; '.join(found)}")
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)

    threads = max(rep["threads_peak"] for p in passes for rep in p)
    if args.trace:
        untraced_s, traced_s = _query_seconds(passes[0]), _query_seconds(passes[1])
        metrics, detail = per_layer(passes[1], untraced_s, traced_s)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "untraced_query_s": untraced_s,
             "traced_query_s": traced_s, "metrics": metrics, **detail}, indent=1) + "\n")
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    elif attempted == failed:
        print("error: every query failed; nothing to time", file=sys.stderr)
        return 1
    else:
        # set-up is timed on both sides of the passes, so that a slow spell
        # of the machine at the start does not decide it alone
        setup_s = statistics.median(setup_times + measure_setup(env, SETUP_RUNS))
        metrics, detail = end_to_end(passes, setup_s)
        units = END_TO_END
        print(f"fail_ratio {failed / attempted} ({failed} of {attempted} queries)")
        print(f"query_tail_s is the p{detail['tail_percentile']:.2f} of {detail['samples']} "
              f"queries, each timed as the fastest of {detail['passes']} passes")
        print(f"query times scaled by {detail['scale']:.4f} to the reference speed "
              f"({detail['probes']} calibration probes)")
    print(f"max worker threads started at once: {threads}; worker processes at once: 1")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
