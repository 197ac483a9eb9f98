#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <alg1_probe|sim_8x8|sweep_4x4> \
        --seed N --seconds S --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
links the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the working directory); the
build is incremental, so only the first run in a checkout compiles. Build
output goes to stderr; the benchmark's own output, whose last line is the
JSON result, goes to stdout. Exits non-zero, printing no result, when the
build or the run fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
