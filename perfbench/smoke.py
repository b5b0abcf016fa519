"""Smoke check of the benchmark at tiny size.

Runs every workload for one second untraced and twice traced at the
same seed, and asserts that each run exits 0 with a well-formed closing
line, that every metric of ``BENCHMARK.json`` is printed with its unit,
that the output checks ran and passed, and that every per-layer count
repeats exactly across the two traced runs::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 5


def _run(workload: str, trace: int) -> Tuple[dict, List[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), lines[:-1]


def _printed_units(lines: List[str], workload: str) -> Dict[str, str]:
    """``metric <workload> <name> = <value> <unit>`` lines -> name: unit."""
    units = {}
    for line in lines:
        parts = line.split()
        if parts[:2] == ["metric", workload]:
            units[parts[2]] = parts[5]
    return units


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        traced = []
        for trace in (0, 1, 1):
            result, lines = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            assert result["failed"] == 0
            owed = declared[trace]
            assert set(result["metrics"]) == set(owed), workload
            for name, entry in result["metrics"].items():
                assert entry["unit"] == owed[name], (workload, name)
            printed = _printed_units(lines, workload)
            for name, unit in owed.items():
                assert printed.get(name) == unit, (workload, name, printed.get(name))
            checks = [line for line in lines if line.startswith("check ")]
            assert checks and not any("FAILED" in line for line in checks)
            if trace:
                traced.append(result["metrics"])
        counts = [
            {n: m["value"] for n, m in run.items() if m["unit"] == "count"}
            for run in traced
        ]
        assert counts[0] == counts[1], f"{workload}: per-layer counts differ"
        print(f"smoke {workload}: ok ({len(counts[0])} counts repeat)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
