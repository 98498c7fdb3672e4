#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <sweep|stress|scale> \
        [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the root).
Build output goes to standard error; the benchmark's report goes to standard
output, whose last line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when the build or the run
fails, and no result is printed then.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "stress", "scale"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(root / "perfbench" / "Cargo.toml"),
    ]
    try:
        subprocess.run(build, cwd=root, env=env, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.SubprocessError) as e:
        # subprocess.run kills the child on timeout and waits for it.
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
