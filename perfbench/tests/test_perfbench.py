#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Runs every workload on tiny inputs (--smoke) through perfbench/run.py and
checks that each pass prints every metric BENCHMARK.json names, with its
unit, and that a deliberately perturbed fingerprint fails the output checks
with a non-zero exit. One traced run of the full cluster_sharded scenario at
the default seed checks that its retry storm is still there, and
perfbench/metrics.json must map exactly the per-layer metrics and workloads
that BENCHMARK.json lists. The first test builds the benchmark binary
(about a minute).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
SEEDS = MAP["seeds"]


def run(workload, trace, *extra, seed=5, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           *(["--smoke"] if smoke else []), *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return r, result


class SmokeRuns(unittest.TestCase):
    def check_pass(self, workload, trace, **kw):
        r, result = run(workload, trace, **kw)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        if workload != "live_serve":
            self.assertEqual(result["failed"], 0)
        # Live stages the generator could not offer on time (host stalls)
        # count as failed when they are most of a rate's stages, so
        # live_serve may report failures on a badly stalled host.
        self.assertLessEqual(result["failed"], result["attempted"])
        want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in want})
        self.assertIn("manifest: workload=" + workload, r.stdout)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return r, result

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_pass(w["name"], trace)

    def test_traced_pass_reproduces_the_known_picture(self):
        _, live = self.check_pass("live_serve", 1)
        self.assertAlmostEqual(
            live["metrics"]["core.dispatches_per_inv"]["value"], 1.0)
        self.assertEqual(live["metrics"]["queueing.bypass_frac"]["value"], 0)
        _, sweep = self.check_pass("keepalive_sweep", 1)
        for name, m in sweep["metrics"].items():
            if name.split(".")[0] in ("runtime", "core", "lb"):
                self.assertEqual(m["value"], 0, name)
        self.assertEqual(sweep["metrics"]["obs.spans_per_inv"]["value"], 0)
        # The full scenario at the default seed keeps its retry storm; the
        # pass itself fails when it does not (about 30 s).
        _, cluster = self.check_pass("cluster_sharded", 1,
                                     seed=SEEDS["default"], smoke=False)
        self.assertAlmostEqual(
            cluster["metrics"]["core.dispatches_per_inv"]["value"], 108,
            delta=10.8)
        self.assertGreaterEqual(
            cluster["metrics"]["obs.spans_per_inv"]["value"], 100)


class MetricMap(unittest.TestCase):
    def test_layer_map_names_every_metric_of_benchmark_json(self):
        self.assertEqual(set(MAP["per_layer"]),
                         {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(set(MAP["workloads"]),
                         {w["name"] for w in SPEC["workloads"]})


class OutputChecks(unittest.TestCase):
    def test_perturbed_fingerprint_fails(self):
        for workload in ("cluster_sharded", "keepalive_sweep"):
            with self.subTest(workload=workload):
                r, result = run(workload, 0, "--perturb-fingerprint")
                self.assertNotEqual(r.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertIn("CHECK FAILED", r.stdout)

    def test_unknown_workload_is_refused(self):
        r, _ = run("no_such_workload", 0)
        self.assertNotEqual(r.returncode, 0)


if __name__ == "__main__":
    unittest.main()
