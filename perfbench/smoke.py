#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Builds the benchmark, runs every workload at the tiny size with tracing
off and on, and checks that:

* each run passes its own output checks and prints the result
  line as its last line of standard output;
* every printed metric is declared in BENCHMARK.json with the same unit,
  and has a layer in perfbench/layers.json;
* every declared metric is printed: all end-to-end metrics by an untraced
  run, all per-layer metrics by a traced one;
* end-to-end values are positive and every value is a finite number.

Run from the repository root:  python3 perfbench/smoke.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "layers.json")) as f:
        layers = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml"], env=env)
    if build.returncode != 0:
        sys.exit("smoke: build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    layer_of = {**layers["end_to_end"], **layers["per_layer"]}
    problems = []
    for name in list(declared[False]) + list(declared[True]):
        if not layer_of.get(name, {}).get("layer"):
            problems.append(f"{name}: no layer in perfbench/layers.json")

    for workload in [w["name"] for w in bench["workloads"]]:
        for traced in (False, True):
            run = subprocess.run(
                [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "1" if traced else "0", "--size", "tiny"],
                capture_output=True, text=True, timeout=300)
            label = f"{workload} trace={int(traced)}"
            if run.returncode != 0:
                problems.append(f"{label}: exit {run.returncode}: {run.stderr.strip()[-500:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: checks did not pass")
            metrics = result["metrics"]
            for name, m in metrics.items():
                unit = declared[traced].get(name)
                if unit is None:
                    problems.append(f"{label}: printed {name} is not declared")
                elif m["unit"] != unit:
                    problems.append(f"{label}: {name} unit {m['unit']} != declared {unit}")
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} value {value!r} is not a finite number")
                elif not traced and value <= 0:
                    problems.append(f"{label}: end-to-end {name} is {value}, not positive")
            for name in declared[traced]:
                if name not in metrics:
                    problems.append(f"{label}: declared {name} was not printed")
            print(f"smoke: {label}: {len(metrics)} metrics, {result['attempted']} checks")

    for p in problems:
        print("smoke: FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
