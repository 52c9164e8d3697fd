#!/usr/bin/env python3
"""Self-test of the lifecycle benchmark's output.

For every workload in BENCHMARK.json:
  * runs untraced and traced twice with one seed and asserts every count
    is identical,
  * runs both once with a second seed and asserts some count changed,
    which shows the seed reaches the generated data (foreign-key stars
    keep their row counts, so the changed count may be a traced one),
  * checks each result line against the contract: exactly the keys
    correct/attempted/failed/metrics, every metric BENCHMARK.json lists,
    with its unit, and a correct run with no failed cycles.

Run from the repository root (takes a few minutes):

    python3 lifecycle_bench/test_counts.py
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Units of measured values; every other unit marks a count that depends
# only on the seed.
MEASURED_UNITS = {"s", "MB", "x", "share"}
SEED_A, SEED_B = 11, 12
SECONDS = "1"


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "lifecycle_bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, (
        f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
        f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def check_contract(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == names, f"metrics {sorted(got)} != {sorted(names)}"


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in MEASURED_UNITS}


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        changed = []
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            first = run(workload, SEED_A, trace)
            again = run(workload, SEED_A, trace)
            other = run(workload, SEED_B, trace)
            for result in (first, again, other):
                check_contract(result, spec)
            assert counts(first) == counts(again), (
                f"{workload} trace {trace}: counts moved between runs of "
                f"one seed:\n{counts(first)}\n{counts(again)}")
            changed += sorted(k for k, v in counts(first).items()
                              if counts(other)[k] != v)
            print(f"ok {workload} trace {trace}: {len(counts(first))} counts "
                  f"repeat")
        assert changed, f"{workload}: seed {SEED_B} changed no count"
        print(f"ok {workload}: seed {SEED_B} changes {', '.join(changed)}")


if __name__ == "__main__":
    main()
