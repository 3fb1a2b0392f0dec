#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Run from the repository root. Runs every workload untraced and traced with
`--size tiny`, and checks each result line against BENCHMARK.json: the four
keys, a passing output check, and exactly the listed metrics with their
units. Then checks that the benchmark fails, without printing a result, in
a directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


def check_result(done, listed):
    """Problems with one run's last stdout line, as a list of strings."""
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(listed):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(listed))}")
    for name, unit in listed.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')}, listed {unit}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')}")
    return problems


def bare_directory_fails():
    """The benchmark must fail, printing no result, without the repository."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "target"))
        env_done = run(["--workload", "paper_exact", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
        last = (env_done.stdout.strip().splitlines() or [""])[-1]
        return env_done.returncode != 0 and '"correct"' not in last
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    lists = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ["0", "1"]:
            done = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", trace, "--size", "tiny"])
            problems = check_result(done, lists[trace])
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
    bare_ok = bare_directory_fails()
    print(f"bare directory fails without a result: {'ok' if bare_ok else 'NO'}")
    failures += not bare_ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
