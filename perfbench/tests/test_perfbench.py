"""Tests of the host-performance benchmark itself, on reduced sizes.

    python3 -m unittest discover -s perfbench/tests -v

Most tests drive perfbench/run.py --smoke the way the benchmark is run; the
gate tests call run.py's own gate on a real smoke pass. The first test
builds the worker if .bench_build/ holds none.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SCRATCH = ROOT / ".bench_build" / "perfbench-tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class EveryMetricIsPrinted(unittest.TestCase):
    def check(self, trace, key):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace)
                result = result_of(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in SPEC[key]])
                text = proc.stdout
                for m in SPEC[key]:
                    entry = result["metrics"][m["name"]]
                    self.assertEqual(entry["unit"], m["unit"])
                    self.assertIsInstance(entry["value"], (int, float))
                    self.assertIn(m["name"], text)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class Gate(unittest.TestCase):
    """A real smoke pass, gated against deliberately drifted pinned values."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(BENCH_DIR))
        import run
        cls.bench = run
        run.build()
        cls.expected = json.loads(run.EXPECTED.read_text())

    def drifted(self, workload, key, value):
        expected = copy.deepcopy(self.expected)
        expected[workload]["smoke"][key] = value
        return expected

    def check_drift(self, workload, key, value):
        p = self.bench.run_pass(workload, False, True, "gate")
        attempted, failed, _ = self.bench.tally([p], self.expected, True)
        self.assertEqual(failed, 0)
        attempted, failed, reasons = self.bench.tally(
            [p], self.drifted(workload, key, value), True)
        self.assertGreaterEqual(attempted, 1)
        self.assertEqual(failed / attempted, 1.0)
        self.assertTrue(any(key in r for r in reasons), reasons)

    def test_drifted_fingerprint_fails_every_row(self):
        self.check_drift("smp_mg_cobra", "fingerprint", "0" * 16)

    def test_drifted_cycles_fail_every_row(self):
        cycles = self.expected["numa_daxpy_share"]["smoke"]["sim_cycles"]
        self.check_drift("numa_daxpy_share", "sim_cycles", cycles + 1)


class HostProbe(unittest.TestCase):
    def test_scales_each_pass_by_its_own_probe(self):
        sys.path.insert(0, str(BENCH_DIR))
        import run
        run.build()
        # The shortest pass there is (about 30 ms) still gets a warm slice.
        p = run.run_pass("numa_daxpy_share", False, True, "probe")
        self.assertGreaterEqual(p["probe_slices"], 1)
        self.assertGreater(p["probe_s"], 0)
        # A slower probe means a slower host: the same time scales down.
        slower = dict(p, probe_s=2 * p["probe_s"])
        self.assertLess(run.at_reference_speed(slower, p["wall_s"]),
                        run.at_reference_speed(p, p["wall_s"]))
        at_reference = dict(p, probe_s=run.PROBE_REFERENCE_S)
        self.assertAlmostEqual(run.at_reference_speed(at_reference, 1.0), 1.0)
        expected = json.loads(run.EXPECTED.read_text())
        self.assertAlmostEqual(
            run.end_to_end([p], expected, True)["wall_s"],
            run.at_reference_speed(p, p["wall_s"]))


class RoundTaskBracket(unittest.TestCase):
    def metrics(self, workload):
        result = result_of(run_bench(workload, 1))
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_reads_about_zero_without_cobra(self):
        m = self.metrics("numa_daxpy_share")
        self.assertEqual(m["cobra.evaluations"], 0)
        self.assertEqual(m["perfmon.samples"], 0)
        # The bracket ran once per engine round, with nothing inside it.
        self.assertGreater(m["layer.cobra.spans"], m["engine.rounds"] * 0.9)
        self.assertLess(m["cobra.host_share"], 0.02)

    def test_covers_cobra_work(self):
        m = self.metrics("smp_mg_cobra")
        self.assertGreater(m["cobra.evaluations"], 0)
        # Every bracket lies inside engine.run: the engine span's self time
        # plus the brackets is the engine span (up to the medians being
        # taken over the passes separately), and the brackets are a part.
        self.assertAlmostEqual(m["layer.engine.self_s"] + m["layer.cobra.self_s"],
                               m["engine.run_s"], delta=0.02 * m["engine.run_s"])
        self.assertLess(m["cobra.round_task_s"], m["engine.run_s"])
        # A bracket holding COBRA's round tasks costs far more per round
        # than the empty bracket of numa_daxpy_share (two clock reads).
        empty = self.metrics("numa_daxpy_share")
        per_round = m["cobra.round_task_s"] / m["layer.cobra.spans"]
        floor = empty["cobra.round_task_s"] / empty["layer.cobra.spans"]
        self.assertGreater(per_round, 10 * floor)
        # The engine span agrees with the simulator's own engine clock
        # (GlobalHostPerfTotals), measured independently of the spans.
        engine_clock_s = m["trace.traced_wall_s"] - m["bench.outside_engine_s"]
        self.assertAlmostEqual(m["engine.run_s"], engine_clock_s,
                               delta=0.05 * engine_clock_s)
        # Outside the child spans the row does almost nothing.
        self.assertLess(m["layer.bench.self_s"], 0.01 * m["trace.traced_wall_s"])


class NeedsTheSimulatorSources(unittest.TestCase):
    def test_fails_without_a_result_outside_a_checkout(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("smp_mg_cobra", 0, cwd=bare,
                         script=bare / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
