#!/usr/bin/env python3
"""Smoke-length self-test of the benchmark.

    python3 perfbench/selftest.py

Runs ``perfbench/run.py --smoke`` on every workload, untraced and traced,
and checks that

* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) named in ``BENCHMARK.json`` is printed with its unit;
* every output check passes (``correct`` true, ``failed`` 0);
* without the ``repro`` sources next to it, the benchmark exits non-zero
  and prints no result.

Exits 0 when all pass.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from spec import load_benchmark, metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    declared = {trace: metric_units(bench, trace) for trace in (0, 1)}
    problems = []

    for workload in workloads:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output checks failed\n{proc.stdout}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                missing = sorted(set(declared[trace]) - set(printed))
                extra = sorted(set(printed) - set(declared[trace]))
                problems.append(f"{label}: metrics missing {missing}, unexpected {extra}")
            print(f"ok  {label}: {len(printed)} metrics, "
                  f"{result['attempted']} phases, {result['failed']} failed")

    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, workloads[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark did not fail cleanly")
        else:
            print("ok  without src/: exit", proc.returncode, "and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    sys.exit(main())
