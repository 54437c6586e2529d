#!/usr/bin/env python3
"""Self-tests of the placement benchmark, on tiny designs (about a minute).

    python3 perfbench/test_run.py

Runs every workload of BENCHMARK.json through perfbench/run.py at a tiny
scale and checks that every metric is emitted with its unit, that the layer
wrappers fire, that thread counts agree, and that a corrupted placement is
reported as a failed run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Small enough for seconds per run; large enough that the router's maze
# fallback still runs on the congested design.
TINY = {
    "congested-ours-t1": ["--scale", "0.05", "--designs", "1",
                          "--outer-iters", "2"],
    "large-xplace-t1": ["--scale", "0.1", "--designs", "1"],
}


def run(workload, trace, *extra, seed=5):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + TINY[workload]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(TINY))

    def check_metrics(self, result, spec_metrics):
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec_metrics})
        for m in spec_metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics_emitted_with_units(self):
        for w in TINY:
            with self.subTest(workload=w):
                _, res = run(w, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.check_metrics(res, SPEC["end_to_end"])
                for m in res["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_per_layer_metrics_and_wrappers_fire(self):
        for w in TINY:
            with self.subTest(workload=w):
                ctx, res = run(w, 1)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(ctx["check_threads"],
                                 min(4, os.cpu_count() or 1))
                self.check_metrics(res, SPEC["per_layer"])
                m = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertGreater(m["eval.router.route_s"], 0)
                if w.startswith("congested"):
                    self.assertGreater(m["place.router.maze_calls"], 0)
                    self.assertGreater(m["place.router.pattern_calls"], 0)
                    self.assertGreater(m["place.router.route_calls"], 0)
                    self.assertGreater(m["place.objective_calls"], 0)
                else:
                    self.assertEqual(m["place.router.route_calls"], 0)
                    self.assertEqual(m["place.router.maze_calls"], 0)
                    self.assertGreater(m["audit.legalized_s"], 0)

    def test_thread_counts_give_identical_placements(self):
        ctx1, res1 = run("congested-ours-t1", 0, seed=11)
        ctx4, res4 = run("congested-ours-t1", 0, "--threads", "4", seed=11)
        self.assertTrue(res1["correct"] and res4["correct"])
        self.assertEqual(ctx1["placement_hashes"], ctx4["placement_hashes"])
        for k in ("drvs", "drwl", "vias", "hpwl_final"):
            self.assertEqual(res1["metrics"][k], res4["metrics"][k], k)

    def test_corrupted_placement_is_a_failed_run(self):
        _, res = run("congested-ours-t1", 0, "--corrupt-placement")
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertGreaterEqual(res["attempted"], res["failed"])


if __name__ == "__main__":
    unittest.main()
