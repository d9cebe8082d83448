#!/usr/bin/env python3
"""Build and run the followscent benchmark.

One run, from the repository root:

    python3 perfbench/run.py --workload survey --seed 7 --seconds 20 --trace 0

builds `perfbench` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload and prints its metric table; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
The exit code is non-zero when the build fails or an output check fails.

Steadiness mode runs each workload once per seed and reports every metric's
median and quartiles, with the spread (interquartile range over median)
next to the bound BENCHMARK.json gives it:

    python3 perfbench/run.py --steady 10 --seconds 20 [--workload monitor]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def target_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else Path.cwd() / target


def build() -> Path:
    """Build the benchmark binary; exit 2 (printing no result) on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        sys.exit(2)
    if done.returncode != 0:
        print(f"run.py: build failed with exit code {done.returncode}", file=sys.stderr)
        sys.exit(2)
    return target_dir() / "release" / "perfbench"


def run_once(binary: Path, workload: str, seed: int, seconds: int, trace: int):
    """Run one workload; return (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = target_dir() / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, []
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    """The JSON result on the last output line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def steady(binary: Path, args) -> int:
    """Run each workload once per seed and report medians and quartiles."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        values = {}
        for seed in range(args.seed, args.seed + args.steady):
            code, lines = run_once(binary, workload, seed, args.seconds, args.trace)
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: failed (exit {code})")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        print(f"\n{workload}: {args.steady} seeds from {args.seed}, {args.seconds} s per run")
        print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="SEEDS",
                        help="steadiness mode: run each workload once per seed")
    args = parser.parse_args()
    if args.steady is None and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.steady is not None:
        return steady(binary, args)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if result_of(lines) is None:
        for line in lines:
            print(line, file=sys.stderr)
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return code or 1
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
