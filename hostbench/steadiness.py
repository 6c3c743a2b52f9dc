#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Usage (from the root of a checkout):
    python3 hostbench/steadiness.py --set NAME

Runs each workload in BENCHMARK.json ten times through hostbench/run.py,
with seeds 1 to 10 and the benchmark's own run_seconds. For every
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, which is the distance
between the quartiles as a share of the median, next to the metric's
bound. It also checks that every run reported no failed
operation and that a seed's simulated digest is the same in every set.
The values are stored under --set in hostbench/steadiness.json, so two
sets taken at different times can be compared. Exit code 1 if a run failed.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=900).stdout
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    result["digest"] = re.search(r"^hostbench: digest=(\S+)$", out,
                                 re.M).group(1)
    result["passes"] = int(re.search(r"passes=(\d+)", out).group(1))
    result["header"] = out.split("\n")[0]
    return result


def host_facts(first_run):
    facts = dict(re.findall(r"(nproc|pool_threads|build)=(\S+)",
                            first_run["header"]))
    cpu = re.search(r"^model name\s*: (.*)$",
                    Path("/proc/cpuinfo").read_text(), re.M)
    facts["cpu_model"] = cpu.group(1) if cpu else "unknown"
    facts["run_seconds"] = SPEC["run_seconds"]
    facts["date"] = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    return facts


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--set", required=True)
    args = ap.parse_args()
    record_path = HERE / "steadiness.json"
    record = (json.loads(record_path.read_text())
              if record_path.exists() else {})
    ok = True
    for w in [x["name"] for x in SPEC["workloads"]]:
        runs = []
        for seed in SEEDS:
            r = run(w, seed)
            r["seed"] = seed
            runs.append(r)
            ok &= r["correct"] and r["failed"] == 0
        entry = {"runs": [{"seed": r["seed"], "digest": r["digest"],
                           "passes": r["passes"], "attempted": r["attempted"],
                           "failed": r["failed"],
                           "metrics": {k: v["value"]
                                       for k, v in r["metrics"].items()}}
                          for r in runs],
                 "summary": {}}
        for m in SPEC["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            entry["summary"][m["name"]] = s
            print(f"{args.set} {w:13s} {m['name']:14s} median {s['median']:.6g}"
                  f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread"
                  f" {s['spread']:.3f} (bound {m['bound']})")
        for other, sets in record.items():
            if other == args.set or w not in sets:
                continue
            for m in SPEC["end_to_end"]:
                base = sets[w]["summary"][m["name"]]["median"]
                now = entry["summary"][m["name"]]["median"]
                worse = (now / base - 1 if m["better"] == "lower"
                         else base / now - 1)
                print(f"{args.set} {w:13s} {m['name']:14s} vs set {other}:"
                      f" {worse:+.3f} worse (bound {m['bound']})")
            before = {r["seed"]: r["digest"] for r in sets[w]["runs"]}
            for r in runs:
                if r["seed"] in before and before[r["seed"]] != r["digest"]:
                    print(f"{w}: seed {r['seed']} digest {r['digest']} "
                          f"differs from set {other}")
                    ok = False
        record.setdefault(args.set, {})["host"] = host_facts(runs[0])
        record[args.set][w] = entry
        record_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
