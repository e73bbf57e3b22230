"""Self-tests of the benchmark itself (not of angleworks).

    python3 bench/selftest.py

* the generators are deterministic per seed and give every seed the same
  size strata;
* a corrupted output, fed to the checker and not to the program, counts as
  a failure, and so does a wrong golden value;
* no workload runs more worker processes, or starts more threads, at once
  than this machine has CPUs;
* BENCHMARK.json names exactly the metrics and workloads the harness has.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))  # before any test pins this process
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import angleworks  # noqa: E402
import angleworks.cli  # noqa: E402,F401
import angleworks.trig_algebra  # noqa: E402,F401


def execute(op: str, args: dict) -> dict:
    """Run one query in this process, the way a worker does."""
    call, convert = worker.OPS[op](angleworks, args)
    return {"id": "selftest", "output": convert(call())}


def query(op: str, args: dict) -> dict:
    return {"id": "selftest", "stratum": "selftest", "size": "selftest", "op": op, "args": args}


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name, gen in workloads.GENERATORS.items():
            for seed in (0, 1, 12345):
                self.assertEqual(gen(seed), gen(seed), name)

    def test_same_strata_across_seeds(self):
        for name, gen in workloads.GENERATORS.items():
            base = workloads.strata(gen(0))
            for seed in range(1, 12):
                queries = gen(seed)
                self.assertEqual(workloads.strata(queries), base, (name, seed))
                self.assertEqual(len({q["id"] for q in queries}), len(queries), name)

    def test_seeds_differ(self):
        for name, gen in workloads.GENERATORS.items():
            self.assertNotEqual([q["id"] for q in gen(0)], [q["id"] for q in gen(1)], name)

    def test_json_round_trip(self):
        for gen in workloads.GENERATORS.values():
            queries = gen(3)
            self.assertEqual(json.loads(json.dumps(queries)), queries)


class CheckerTest(unittest.TestCase):
    """Each case: a real output passes, the same output corrupted fails."""

    def assert_caught(self, q, result, corrupt, refs=None):
        refs = refs or {}
        self.assertEqual(checks.problems(q, result, refs), [], q["args"])
        bad = json.loads(json.dumps(result))
        corrupt(bad["output"])
        self.assertNotEqual(checks.problems(q, bad, refs), [], q["args"])

    def test_cli_angle_row_all_formats(self):
        for fmt in ("plain", "csv", "latex", "json"):
            argv = ["angles", "--family", "beta", "--n", "5", "--beta=-1", "--format", fmt]
            q = query("cli", {"argv": argv})

            def corrupt(out):
                out["stdout"] = out["stdout"].replace("1/6", "1/7", 1).replace('"6"', '"7"', 1)

            self.assert_caught(q, execute("cli", q["args"]), corrupt)

    def test_cli_fvector_and_digits(self):
        q = query("cli", {"argv": ["fvector", "--model", "voronoi", "--d", "3", "--digits", "12"]})
        result = execute("cli", q["args"])

        def corrupt_decimal(out):
            dec = checks.parse_records(q["args"]["argv"], out["stdout"])[0]["decimal"]
            out["stdout"] = out["stdout"].replace(dec, dec[:-1] + str((int(dec[-1]) + 1) % 10), 1)

        self.assert_caught(q, result, corrupt_decimal)
        self.assert_caught(q, result, lambda out: out.update(
            stdout=out["stdout"].replace("96/35", "97/35")))

    def test_cli_reitzner(self):
        q = query("cli", {"argv": ["reitzner", "--surface", "sphere", "--d", "4"]})
        self.assert_caught(q, execute("cli", q["args"]), lambda out: out.update(
            stdout=out["stdout"].replace("angle factor: 2", "angle factor: 3")))

    def test_exit_code_counts(self):
        q = query("cli", {"argv": ["angles", "--family", "beta", "--n", "4", "--beta=-1"]})
        self.assert_caught(q, execute("cli", q["args"]), lambda out: out.update(exit=2))

    def test_library_outputs(self):
        cases = [
            ("angle_row", {"family": "beta", "n": 6, "beta": "1/2"},
             lambda out: out["values"].reverse()),
            ("angle_row", {"family": "betaprime", "n": 5, "beta": "7/2"},
             lambda out: out["values"].__setitem__(0, "1/3")),
            ("fvector", {"model": "beta", "d": 3, "n": 5, "beta": "0"},
             lambda out: out["values"].__setitem__(1, out["values"][1] + " + 1")),
            ("fvector", {"model": "zerocell", "d": 4},
             lambda out: out["values"].__setitem__(0, "1")),
            ("external_row", {"family": "beta", "n": 4, "alpha": 2},
             lambda out: out["values"].__setitem__(0, "2")),
            ("inversion", {"family": "beta", "n": 5, "alpha": 3, "k": 2},
             lambda out: out.update(value="1/2")),
            ("decimal", {"n": 6, "k": 2, "twice_beta": -1, "digits": 20},
             lambda out: out.update(decimal=out["decimal"][:-1] + ("1" if out["decimal"][-1] == "0" else "0"))),
            ("angle_row", {"family": "beta", "n": 6, "beta": 0.3},
             lambda out: out["values"].__setitem__(2, out["values"][2] * (1 + 1e-6))),
            ("fvector", {"model": "poisson", "d": 4, "alpha": 2.5},
             lambda out: out["values"].__setitem__(1, out["values"][1] + 1e-5)),
        ]
        for op, args, corrupt in cases:
            q = query(op, args)
            self.assert_caught(q, execute(op, args), corrupt)

    def test_float_against_references(self):
        argv = ["angles", "--family", "beta", "--n", "4", "--beta=1/2", "--numeric", "--format", "json"]
        q_num = query("cli_numeric", {"argv": argv})
        q_mc = query("mc_angle", {"family": "beta", "n": 3, "k": 1, "twice_beta": 0,
                                  "simplices": 100, "directions": 64, "seed": 5})
        keys = sorted({k for q in (q_num, q_mc) for k in checks.reference_keys(q)})
        refs = execute("reference", {"keys": keys})["output"]

        def corrupt_numeric(out):
            doc = json.loads(out["stdout"])
            doc["records"][0]["float"] *= 1 + 1e-6
            out["stdout"] = json.dumps(doc)

        self.assert_caught(q_num, execute("cli_numeric", q_num["args"]), corrupt_numeric, refs)
        self.assert_caught(q_mc, execute("mc_angle", q_mc["args"]),
                           lambda out: out.update(mean=out["mean"] + 5 * out["stderr"]), refs)

    def test_error_counts(self):
        q = query("angle_row", {"family": "beta", "n": 4, "beta": "1/2"})
        self.assertNotEqual(checks.problems(q, {"id": "x", "error": "ValueError: boom"}, {}), [])

    def test_wrong_golden_value_fails_the_run(self):
        """End to end: one wrong golden value makes failed > 0."""
        golden = json.loads(run.golden_path("float-oracle").read_text())
        victim = sorted(golden)[0]
        golden[victim] = [v * 1.001 + 1 for v in golden[victim]] if isinstance(
            golden[victim], list) else "0" * 24
        scratch = run.OUT / "selftest-golden"
        scratch.mkdir(parents=True, exist_ok=True)
        (scratch / "float-oracle.json").write_text(json.dumps(golden))
        saved, run.GOLDEN = run.GOLDEN, scratch
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                run.main(["--workload", "float-oracle", "--seed", str(workloads.DEFAULT_SEED),
                          "--seconds", "0"])
        finally:
            run.GOLDEN = saved
        last = json.loads(out.getvalue().strip().split("\n")[-1])
        self.assertFalse(last["correct"])
        self.assertEqual(last["failed"], 1)


class ConcurrencyTest(unittest.TestCase):
    """Workers run one at a time, and none starts more threads than CPUs."""

    def test_processes_and_threads_within_nproc(self):
        live, peak = [0], [0]
        real = run.subprocess.run

        def counting_run(*args, **kwargs):
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            try:
                return real(*args, **kwargs)
            finally:
                live[0] -= 1

        env = run.worker_env()
        run.subprocess.run = counting_run
        try:
            for name, gen in workloads.GENERATORS.items():
                queries = gen(0)
                # the cheap part of each mix, with every CLI command and Monte Carlo op
                picked = [q for q in queries if q["stratum"] in ("small", "montecarlo")][:12]
                picked += [q for q in queries if q["op"] in ("angle_row", "fvector")][:12]
                for rep in run.run_pass(name, picked, env, trace=False):
                    self.assertLessEqual(rep["threads_peak"], NPROC, name)
                    self.assertTrue(all("seconds" in r for r in rep["results"]), name)
        finally:
            run.subprocess.run = real
        self.assertEqual(live[0], 0)
        self.assertLessEqual(peak[0], NPROC)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_and_workloads_match(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
