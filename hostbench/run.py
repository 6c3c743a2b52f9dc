#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

Usage (from the root of a checkout):
    python3 hostbench/run.py --workload web-crawl --seed 1 --seconds 45 --trace 0

The library (../src) and sg_hostbench (hostbench.cpp) are built with CMake
into $CARGO_TARGET_DIR (default .bench_build) under the checkout. Build
output goes to stderr. The output of sg_hostbench is passed through; its last
stdout line is the JSON result. Any extra arguments go to sg_hostbench
(for example --inject-wrong, used by selftest.py).

sg_hostbench is stopped if it runs longer than --seconds plus
RUN_MARGIN_S, which covers set-up, oracles, the warm-up pass and the last
pass.

Exit code 0 on success; non-zero, with no result line, when the build or
the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_MARGIN_S = 120


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "hostbench"


def build() -> Path:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "sg_hostbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "sg_hostbench"


def main() -> int:
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--seconds", type=float, default=10)
    seconds = ap.parse_known_args()[0].seconds
    args = [str(binary), *sys.argv[1:], "--out", str(ROOT / ".bench_out")]
    with subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + RUN_MARGIN_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("hostbench: run timed out", file=sys.stderr)
            return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"hostbench: sg_hostbench exited {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        print("hostbench: sg_hostbench printed no result line",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
