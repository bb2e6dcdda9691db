#!/usr/bin/env python3
"""Self-test of the mrpic benchmark.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout (the first test builds the driver through
perfbench/run.py). Each workload runs briefly (--steps shortens the timed
segment). The tests check that every metric named in BENCHMARK.json prints
with its unit, that correct runs report failed = 0 on two seeds, that a
deliberately corrupted state counts as a failure, and that the count metrics
repeat exactly from run to run.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHORT_STEPS = "30"


def run(workload, seed=1, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--steps", SHORT_STEPS, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def table(lines):
    """metric name -> (value text, unit) from the printed table."""
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] != "metric":
            rows[parts[0]] = (parts[1], parts[2])
    return rows


class EndToEnd(unittest.TestCase):
    def check_metrics(self, result, lines, names):
        rows = table(lines)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertIn(m["name"], rows)
            self.assertEqual(rows[m["name"]][1], m["unit"], m["name"])
            self.assertNotIn("nan", rows[m["name"]][0].lower(), m["name"])

    def test_every_end_to_end_metric_on_every_workload(self):
        for w in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=w, seed=seed):
                    result, lines = run(w, seed)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, lines, SPEC["end_to_end"])
                    # Printed in the table but not gated in BENCHMARK.json.
                    self.assertIn("failed_frac", table(lines))
                    self.assertEqual(table(lines)["step_ms_p95"][1], "ms")
                    for m in SPEC["end_to_end"]:
                        self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_every_per_layer_metric_on_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, lines = run(w, 1, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, lines, SPEC["per_layer"])
                if w == "uniform_plasma":
                    self.assertEqual(table(lines)["mr.build_aux_us"][0], "n/a")

    def test_corrupted_state_counts_as_failure(self):
        for w, how in (("uniform_plasma", "nan"), ("uniform_plasma", "particle"),
                       ("lwfa_mr", "particle"), ("campaign_pair", "nan")):
            with self.subTest(workload=w, corrupt=how):
                result, lines = run(w, 1, 0, "--corrupt", how)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(float(table(lines)["failed_frac"][0]), 0)

    def test_count_metrics_repeat_exactly(self):
        counts = ("amr.allocs_per_step", "particles.inversion_frac", "particles.ppc_mean")
        for w in ("lwfa_mr", "uniform_plasma"):
            with self.subTest(workload=w):
                a, _ = run(w, 7, 1)
                b, _ = run(w, 7, 1)
                for name in counts:
                    self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"],
                                     name)


if __name__ == "__main__":
    unittest.main()
