#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the `perfbench` binary (a package of its own in this
directory) plus the workspace's `mphd` and `mphd_worker` binaries into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root), then
runs one workload. The last line of its standard output is the JSON result.

`--self-test` runs every workload of BENCHMARK.json at smoke size, untraced
and traced, and checks that each run emits exactly the metrics BENCHMARK.json
names, with their units, and reports no failed operation.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build():
    """Builds the three binaries; returns the perfbench executable."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit("perfbench: the workspace sources are missing next to perfbench/")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mph-serve", "--bin", "mphd",
         "-p", "mph-experiments", "--bin", "mphd_worker"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        # Cargo's own output goes to stderr; stdout stays for the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return target / "release" / "perfbench"


def self_test(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = f"{workload} --trace {trace}"
            cmd = [str(exe), "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{run}: exit code {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{run}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{run}: error_rate {result['failed']}/{result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(expected[trace].items()))
                problems.append(f"{run}: missing {missing}, unexpected {extra}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{run}: {name} = {m['value']!r}")
            print(f"self-test {run}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    for p in problems:
        print(f"self-test FAILED {p}")
    print("self-test passed" if not problems else f"self-test: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    exe = build()
    if args == ["--self-test"]:
        return self_test(exe)
    return subprocess.run([str(exe)] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
