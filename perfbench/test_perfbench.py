#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py               # everything
    python3 perfbench/test_perfbench.py StatsTest     # no build needed

StatsTest checks the statistics on known samples. CatalogueTest checks
BENCHMARK.json against the benchmark's rules and against the metric names
the benchmark promises. SmokeTest builds the runner and runs every
workload at a tiny size, untraced and traced: each run must pass its
correctness gates and print every metric of BENCHMARK.json with its unit.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

# Every metric the benchmark promises, by layer (README.md explains each).
END_TO_END = [
    "setup_s", "run_ms.floor", "jobs_per_s", "latency_vt.p50",
    "latency_vt.p99", "latency_vt.p99.high", "served_share", "peak_rss_mb",
]
PER_LAYER = [
    "protocols.vote_ns", "protocols.resolve_ns",
    "core.check_ns",
    "sim.restore_ns", "sim.fork_exec_us", "sim.messages_per_exec",
    "faults.executions", "faults.weighted", "faults.reduction",
    "faults.forks", "faults.rounds_replayed", "faults.rounds_skipped",
    "faults.us_per_exec", "faults.unattributed_ms",
    "faults.unattributed_share",
    "sweep.shards", "sweep.shard_ms.p50", "sweep.shard_ms.max",
    "sweep.overhead_ms", "sweep.performed_ratio",
    "service.offer_us.p50", "service.offer_us.p99", "service.offers",
    "service.step_ms.p50", "service.step_ms.p99", "service.ticks",
    "service.active_per_tick.mean", "service.step_ns_per_instance",
    "service.end_run_ms", "service.unattributed_ms",
    "service.unattributed_share", "service.slot_reuse_ratio",
    "service.queue_wait_vt.p99", "service.messages_per_job",
    "frontend.ticks", "frontend.shard_skew", "frontend.pool_speedup",
    "run_ms.p50", "run_ms.p90", "trace.traced_ms.min", "trace.overhead_ms",
]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class StatsTest(unittest.TestCase):
    def test_percentiles_on_known_samples(self):
        one_to_100 = list(range(100, 0, -1))
        self.assertEqual(benchstats.percentile(one_to_100, 0.5), 50)
        self.assertEqual(benchstats.percentile(one_to_100, 0.9), 90)
        self.assertEqual(benchstats.percentile(one_to_100, 1.0), 100)
        self.assertEqual(benchstats.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(benchstats.percentile([7.5], 0.9), 7.5)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 0.5)

    def test_ten_samples_beyond_the_percentile(self):
        self.assertEqual(benchstats.samples_beyond(100, 0.9), 10)
        self.assertTrue(benchstats.tail_ok(100, 0.9))
        self.assertFalse(benchstats.tail_ok(99, 0.9))
        self.assertEqual(benchstats.min_samples(0.9), 100)
        self.assertEqual(benchstats.min_samples(0.99), 1000)
        self.assertEqual(benchstats.min_samples(0.5), 20)

    def test_bound_comparison(self):
        self.assertTrue(benchstats.within_bound(100.0, 110.0, "lower", 0.1))
        self.assertFalse(benchstats.within_bound(100.0, 110.5, "lower", 0.1))
        self.assertTrue(benchstats.within_bound(100.0, 50.0, "lower", 0.1))
        self.assertTrue(benchstats.within_bound(100.0, 90.0, "higher", 0.1))
        self.assertFalse(benchstats.within_bound(100.0, 89.5, "higher", 0.1))
        with self.assertRaises(ValueError):
            benchstats.within_bound(1.0, 1.0, "sideways", 0.1)

    def test_spread(self):
        # quantiles(n=4) of 1..9 are 2.5, 5, 7.5: (7.5 - 2.5) / 5 = 1.
        self.assertAlmostEqual(benchstats.spread(list(range(1, 10))), 1.0)
        self.assertEqual(benchstats.spread([4.0] * 10), 0.0)


class CatalogueTest(unittest.TestCase):
    def test_contract_shape(self):
        b = bench()
        self.assertEqual(sorted(b), sorted([
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"]))
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        runs = 4 + 22 * len(b["workloads"])
        # Each run: set-ups, the window, and the runner's own overhead.
        self.assertLess(runs * (b["run_seconds"] + 8) + 2 * 300, 3420)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        names = [m["name"] for m in
                 b["workloads"] + b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_every_promised_metric_is_listed(self):
        b = bench()
        self.assertEqual([m["name"] for m in b["end_to_end"]], END_TO_END)
        self.assertEqual([m["name"] for m in b["per_layer"]], PER_LAYER)


class SmokeTest(unittest.TestCase):
    """Tiny sizes of every workload through the real command."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, workload, trace, catalogue):
        result = self.run_bench(workload, trace)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in catalogue})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return result["metrics"]

    def test_workloads(self):
        b = bench()
        for w in b["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                e2e = self.check(w["name"], 0, b["end_to_end"])
                for name, m in e2e.items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=w["name"], trace=1):
                self.check(w["name"], 1, b["per_layer"])


if __name__ == "__main__":
    unittest.main()
