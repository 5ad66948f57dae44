#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size, three times.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs perfbench/run.py with --size tiny twice untraced
(--trace 0) and once traced (--trace 1), each in a fresh process, and
asserts that:

- every run exits 0 and its last stdout line is the result object with
  exactly the keys correct, attempted, failed and metrics, correct true;
- the untraced runs report exactly the end-to-end metrics BENCHMARK.json
  names and the traced run exactly its per-layer metrics, with their units;
- the "exact " lines (simulated results, counts, allocation of the first
  untraced pass) are identical, bit for bit, across all three runs.

Exits 1 on the first failed assertion.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n"
                 f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
    return lines


def check_result(workload, trace, lines, expected):
    result = json.loads(lines[-1])
    where = f"{workload} trace={trace}"
    if set(result) != RESULT_KEYS:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        sys.exit(f"FAIL {where}: correct is {result['correct']}")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int):
            sys.exit(f"FAIL {where}: {k} is not a whole number")
    if result["attempted"] < 1:
        sys.exit(f"FAIL {where}: attempted < 1")
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != expected:
        sys.exit(f"FAIL {where}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(expected) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected))}, or units differ")
    for n, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            sys.exit(f"FAIL {where}: {n} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (wl["name"] for wl in bench["workloads"]):
        runs = [(0, run(w, 0)), (0, run(w, 0)), (1, run(w, 1))]
        exacts = []
        for trace, lines in runs:
            check_result(w, trace, lines, per_layer if trace else end_to_end)
            exacts.append([l for l in lines if l.startswith("exact ")])
        if not exacts[0]:
            sys.exit(f"FAIL {w}: no exact lines")
        for i, e in enumerate(exacts[1:], start=2):
            if e != exacts[0]:
                diff = [(a, b) for a, b in zip(exacts[0], e) if a != b][:3]
                sys.exit(f"FAIL {w}: run {i} exact lines differ from run 1: "
                         f"{diff or 'line counts differ'}")
        print(f"ok {w}: 3 runs, {len(exacts[0])} exact lines identical")
    print("selftest passed")


if __name__ == "__main__":
    main()
