#!/usr/bin/env python3
"""Build and run the mrpic benchmark.

    python3 perfbench/run.py --workload lwfa_mr --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first call configures and builds the
driver and the mrpic library from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only check the build is up to
date. Every argument is passed to the driver (perfbench/driver.cpp), whose
last stdout line is the JSON result. Build output goes to stderr.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(src: Path, build_dir: Path) -> Path:
    configure = ["cmake", "-S", str(src), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench_driver"


def main() -> int:
    src = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    try:
        driver = build(src, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if "--outdir" not in args:
        args += ["--outdir", str(build_dir / "out")]
    try:
        proc = subprocess.run([str(driver)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
