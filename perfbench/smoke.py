"""Smoke test of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload in its tiny configuration (``--tiny``, 2 s) on two
seeds, untraced and traced, and checks that each run exits 0, reports
``correct`` with no failures, and prints exactly the metrics that
``BENCHMARK.json`` names, each with its unit and a finite value.  That
includes ``serve_burst``, which ``BENCHMARK.json`` does not gate.  It also
checks that the benchmark refuses to run (non-zero exit, no result line)
in a directory that holds only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def check_run(spec: dict, workload: str, seed: int, trace: int) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "2", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} seed {seed} trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-1500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not correct ({result.get('failed')} of {result.get('attempted')} failed)")
    expected = {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
    return problems


def check_refuses_without_sources() -> list:
    """In a directory holding only BENCHMARK.json and the benchmark, it must fail cleanly."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "ladder_batch", "--seed", "1",
             "--seconds", "2", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    problems = check_refuses_without_sources()
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(spec, workload, seed, trace)
                print(f"{workload} seed {seed} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
                problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke test passed" if not problems else f"smoke test failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
