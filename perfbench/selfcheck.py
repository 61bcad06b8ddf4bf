#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload with tiny inputs for one second, end-to-end and traced,
and asserts that each run exits 0, that every metric BENCHMARK.json declares
for the mode is printed with its declared unit, and that every oracle check
passed (correct, no failed request). Then checks that the benchmark refuses
to run, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(workload, trace, spec):
    proc = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    assert proc.returncode == 0, "%s exited %d:\n%s" % (where, proc.returncode, proc.stderr[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, "%s: an answer differed from the oracle" % where
    assert result["attempted"] >= 1 and result["failed"] == 0, "%s: %r" % (where, result)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, where
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], "%s: %s in %s" % (where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            "%s: %s = %r" % (where, m["name"], got["value"])
    print("ok  %-14s --trace %d  (%d requests)" % (workload, trace, result["attempted"]), flush=True)


def check_bare():
    """Outside a checkout the benchmark must fail without a result."""
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("serve-ptime", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran outside a checkout"
    assert '"metrics"' not in proc.stdout, "printed a result outside a checkout"
    print("ok  refuses to run outside a checkout", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec)
    check_bare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
