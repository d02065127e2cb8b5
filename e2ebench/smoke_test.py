#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark on the tiny preset.

Run from the repository root:

    python3 e2ebench/smoke_test.py

Runs every workload of BENCHMARK.json once untraced and once traced, on the
tiny preset with a short run, and asserts that each prints exactly the
metrics BENCHMARK.json names, with their units, and that every check passed.
Exits 1 on the first failure.
"""

import json
import subprocess
import sys


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--preset", "tiny"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
