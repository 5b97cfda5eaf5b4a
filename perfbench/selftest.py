#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

A short run of every workload, untraced and traced, must print a result
line with exactly the declared metrics, each a finite number, and no
failed operation. Two planted faults must be counted as failures: a
truncated session file under `reload` and a digest mismatch under
`cell_load`. Exits non-zero on the first broken expectation.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_shape(result, names, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (label, result.keys())
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(names), (label, sorted(metrics))
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}, (label, name, m)
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (label, name, value)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for w in (w["name"] for w in bench["workloads"]):
        for trace, names in ((0, end_to_end), (1, per_layer)):
            result = run(w, trace)
            label = f"{w} --trace {trace}"
            check_shape(result, names, label)
            assert result["correct"] and result["failed"] == 0, (label, result)
            print(f"ok  {label}: {result['attempted']} operations, all metrics finite")
    for workload, plant in (("reload", "truncate"), ("cell_load", "digest")):
        result = run(workload, 0, "--plant", plant)
        label = f"{workload} --plant {plant}"
        check_shape(result, end_to_end, label)
        assert result["failed"] > 0 and not result["correct"], (label, result)
        print(f"ok  {label}: {result['failed']} of {result['attempted']} operations failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
