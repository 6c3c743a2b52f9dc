#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

Usage (from the root of a checkout):
    python3 hostbench/selftest.py [workload ...]

Runs each workload (default: all in BENCHMARK.json) for one second per
invocation through hostbench/run.py and checks that:
  * every metric BENCHMARK.json lists is printed once, with its unit, and
    is finite (end-to-end metrics untraced, per-layer metrics traced);
  * a clean run reports no failed operation;
  * two invocations with the same seed print the same simulated digest
    (the second one traced, so tracing must not change the results);
  * a different seed changes the seeded inputs (extra bfs/sssp sources,
    serve traces);
  * --inject-wrong, which corrupts one answer per pass inside the
    benchmark, is counted as failed operations.
Exit code 0 when every check passes, 1 otherwise.
"""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    out = proc.stdout
    result = json.loads(out.rstrip("\n").split("\n")[-1],
                        object_pairs_hook=reject_duplicates)
    digest = re.search(r"^hostbench: digest=(\S+)$", out, re.M).group(1)
    inputs = re.search(r"input_digest=(\S+)$", out, re.M).group(1)
    return out, result, digest, inputs


def reject_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"metric printed more than once: {sorted(dup)}")
    return dict(pairs)


def check_metrics(out, result, wanted, errors, label):
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{label}: metrics {sorted(metrics)} differ from "
                      f"BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got['unit']} != "
                          f"{m['unit']}")
        if not math.isfinite(got["value"]):
            errors.append(f"{label}: {m['name']} is not finite")
        if out.count(f"hostbench: metric {m['name']} ") != 1:
            errors.append(f"{label}: {m['name']} not printed exactly once")


def selftest(workload):
    errors = []
    out, res, digest, inputs = run(workload, 1, 0)
    check_metrics(out, res, SPEC["end_to_end"], errors, f"{workload} trace 0")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"{workload}: clean run reported failures: "
                      f"{res['failed']}/{res['attempted']}")

    out, res, digest_traced, _ = run(workload, 1, 1)
    check_metrics(out, res, SPEC["per_layer"], errors, f"{workload} trace 1")
    if digest_traced != digest:
        errors.append(f"{workload}: same seed gave digests {digest} and "
                      f"{digest_traced}")

    _, _, _, inputs_other = run(workload, 2, 0)
    if inputs_other == inputs:
        errors.append(f"{workload}: seeds 1 and 2 gave the same inputs")

    out, res, _, _ = run(workload, 1, 0, "--inject-wrong")
    ratio = float(re.search(r"failed_ratio=(\S+)", out).group(1))
    if res["correct"] or res["failed"] == 0 or not ratio > 0:
        errors.append(f"{workload}: injected wrong answer was not counted")
    return errors


def main():
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    errors = []
    for w in workloads:
        found = selftest(w)
        print(f"selftest {w}: {'ok' if not found else 'FAIL'}")
        errors += found
    for e in errors:
        print(f"  {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
