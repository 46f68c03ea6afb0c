#!/usr/bin/env python3
"""Build the benchmark runner from source and run it pinned to one CPU.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <manycore-barrier|dlock-grid|lint-synth|all> \
        --seed <n> --seconds <s> --trace <0|1>

The runner (a Rust package of its own in this directory) is built with
`cargo build --release` into `$CARGO_TARGET_DIR` (default `.bench_build`
at the repository root). Cargo's output goes to stderr, so the runner's
output is all that reaches stdout; its last line is the JSON result. A
build failure exits non-zero without printing a result.

With `--trace 1` the spans of the traced passes are written to
`<target dir>/perfbench-spans/<workload>-seed<n>.tsv`.

`--workload all` runs the three workloads one after the other, each in a
process of its own, and ends with one JSON object whose metric names are
prefixed with the workload name.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ["manycore-barrier", "dlock-grid", "lint-synth"]


def pick_cpu():
    """The highest-numbered CPU this process may run on."""
    return max(os.sched_getaffinity(0))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "armbar-perfbench")
    if args.workload != "all":
        code, out = run_one(binary, target, env, args, args.workload)
        sys.stdout.write(out)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_one(binary, target, env, args, workload)
        lines = out.rstrip("\n").split("\n")
        if code != 0 or not lines[-1].startswith("{"):
            sys.stdout.write(out)
            return code or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def run_one(binary, target, env, args, workload):
    """Run the runner binary on one workload, pinned to one CPU: (exit code, stdout)."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-seed{args.seed}.tsv")]

    cpu = pick_cpu()
    try:
        run = subprocess.run(
            cmd,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1, ""
    return run.returncode, run.stdout


if __name__ == "__main__":
    sys.exit(main())
