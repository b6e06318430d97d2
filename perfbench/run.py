#!/usr/bin/env python3
"""Repository benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the workload in
fresh processes of its own:

* SETUP_SAMPLES - 1 set-up-only processes, then
* one measuring process, which sets up once more and measures for
  `--seconds`.

`setup_s` is the median set-up time over all of them, so a cold set-up
is sampled several times per run. Every process must report the same
simulated-domain counts ("identity"); they are also kept per build,
workload and seed under the target directory and must repeat in later
runs of the same build.

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's `end_to_end` list, with
--trace 1 its `per_layer` list; a layer the workload does not run
reports 0. A human-readable table goes to stderr. `layers.json` records
which end-to-end metric each per-layer metric should move, on which
workload.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 5
# Every run but the first (which builds) ends within this many seconds.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 900


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(layers) != sorted(names):
        fail("layers.json and BENCHMARK.json per_layer list different metrics")
    return spec


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("cargo not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_child(cmd, deadline):
    """Runs one workload process; returns its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(cmd[1:]))
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd[1:]))
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"exit code {res.returncode}: " + " ".join(cmd[1:]))
    return json.loads(lines[-1])


def check_identity(binary, workload, seed, reports, errors):
    """Every process, and every earlier run of the same build on this
    workload and seed, must report the same simulated-domain counts."""
    first = reports[0]["identity"]
    for r in reports[1:]:
        if r["identity"] != first:
            errors.append(f"identity differs between processes: {r['identity']} vs {first}")
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(target_dir(), "perfbench", "identity")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-seed{seed}-{build_id}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != first:
            errors.append(f"identity differs from an earlier run: {first} vs {earlier}")
    else:
        with open(path, "w") as f:
            json.dump(first, f, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build()

    deadline = time.monotonic() + RUN_BUDGET_S
    base = [binary, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", os.path.join(target_dir(), "perfbench")]
    reports = [run_child(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    measured = run_child(base, deadline)
    reports.append(measured)

    errors = [e for r in reports for e in r["errors"]]
    check_identity(binary, args.workload, args.seed, reports, errors)
    setup_s = statistics.median(r["setup_s"] for r in reports)

    got = dict(measured["metrics"])
    if args.trace == 0:
        got["setup_s"] = [setup_s, "s"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = got.pop(m["name"], [0.0 if args.trace else None, m["unit"]])
        if unit != m["unit"]:
            errors.append(f"{m['name']}: unit {unit}, BENCHMARK.json says {m['unit']}")
        if value is None or not math.isfinite(value) or (not args.trace and value <= 0):
            errors.append(f"{m['name']}: bad value {value}")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if got:
        errors.append(f"metrics missing from BENCHMARK.json: {sorted(got)}")

    attempted = int(measured["attempted"])
    failed = int(measured["failed"])
    correct = not errors and failed == 0 and attempted >= 1
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {attempted}, failed {failed}, failed_ratio {failed / max(attempted, 1):.6f}, "
          f"correct {str(correct).lower()}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
