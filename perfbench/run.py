#!/usr/bin/env python3
"""Build and run the tm-modelcheck benchmark (see README.md beside this file).

Run from the repository root:

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 30 --trace 0

It builds the benchmark package and the `tm-serve` daemon in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload and
passes the benchmark's stdout through: the last line is the result
object. Build output goes to stderr.

    python3 perfbench/run.py --check-counts --workload paper-warm --seed 3 --seconds 2

runs the same seed twice and checks that both runs print identical
deterministic work counts.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Both builds together, then the run, stay inside the 900 s a first run
# may take; a later run's no-op builds take a second or two.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160


def build(target_dir):
    """Builds the benchmark and the daemon; False if either build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [
        ["--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "tm-service", "--bin", "tm-serve"],
    ]
    for step in steps:
        manifest = Path(step[1])
        if not manifest.is_file():
            print(f"run.py: {manifest} is missing; nothing to build", file=sys.stderr)
            return False
        try:
            done = subprocess.run(
                ["cargo", "build", "--release", "--offline", *step],
                cwd=ROOT,
                env=env,
                stdout=sys.stderr,
                timeout=max(1, deadline - time.monotonic()),
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: build failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: cargo build {' '.join(step)} failed", file=sys.stderr)
            return False
    return True


def run_once(target_dir, args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    release = target_dir / "release"
    command = [
        str(release / "tm-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", str(release / "tm-serve"),
        "--work-dir", str(ROOT / ".bench_build" / "perfbench-work"),
    ]
    # A session of its own, so a timeout can stop the daemon it started too.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"run.py: the benchmark ran over {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3, ""
    return child.returncode, out


def counts(stdout):
    """The deterministic counts of a run's report line."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        return None
    return json.loads(lines[-2])["report"]["counts"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper-warm", "cold-scale", "budget-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-counts", action="store_true", help="run twice and compare work counts")
    args = parser.parse_args()

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    if not build(target_dir):
        return 2

    if args.check_counts:
        first_code, first = run_once(target_dir, args)
        second_code, second = run_once(target_dir, args)
        if first_code or second_code:
            print("run.py: a run failed", file=sys.stderr)
            return 1
        a, b = counts(first), counts(second)
        print(json.dumps({"seed": args.seed, "first": a, "second": b, "identical": a == b}))
        return 0 if a == b else 1

    code, out = run_once(target_dir, args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
