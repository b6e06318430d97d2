#!/usr/bin/env python3
"""Tests of the benchmark driver. Run from the repository root:

    python3 -m unittest perfbench/test_run.py

Every workload runs briefly on two held-out seeds (seeds not used while
the benchmark was tuned) and once traced; all correctness checks must
pass. A directory holding only the benchmark, without the program, must
make the driver fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HELD_OUT_SEEDS = (101, 202)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class DriverTest(unittest.TestCase):
    def check_result(self, res, wanted):
        self.assertEqual(res.returncode, 0, res.stderr)
        result = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], res.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_every_workload_on_held_out_seeds(self):
        for w in SPEC["workloads"]:
            for seed in HELD_OUT_SEEDS:
                with self.subTest(workload=w["name"], seed=seed):
                    result = self.check_result(bench(w["name"], seed, 0), SPEC["end_to_end"])
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(bench(w["name"], HELD_OUT_SEEDS[0], 1), SPEC["per_layer"])

    def test_fails_without_the_program(self):
        scratch = os.path.join(ROOT, ".bench_build", "perfbench", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "Cargo.lock"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, ".bench_build"))
        try:
            res = bench("campaign", 1, 0, cwd=scratch, env=env)
            self.assertNotEqual(res.returncode, 0)
            self.assertFalse(res.stdout.strip(), "printed a result without the program")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
