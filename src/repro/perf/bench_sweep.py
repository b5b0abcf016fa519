"""E3-scale sweep benchmark: the ``BENCH_sweep.json`` artifact generator.

Runs the paper's E3 acceptance sweep (general task sets, log-uniform
periods, full utilization grid) in two modes and records the hot-path
counters and curve equality:

* ``incremental-serial`` — cached-context admission with warm-started
  fixed points, one process;
* ``incremental-parallel`` — the same, fanned out over ``--jobs`` worker
  processes by :mod:`repro.runner`.

Both must produce bit-identical curves and counters; the run aborts
loudly if the curves do not match.  The artifact holds results only:
wall-clock timing of this sweep is ``perfbench``'s ``sweep-e3``
workload.  Usage::

    PYTHONPATH=src python -m repro.perf.bench_sweep \
        --samples 100 --jobs 4 \
        --out benchmarks/results/BENCH_sweep.json
"""

# repro-lint: disable-file=R8 -- this module IS a CLI entry point
# (python -m repro.perf.bench_sweep); its prints are the report.

from __future__ import annotations

import argparse
import os
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.acceptance import acceptance_sweep
from repro.analysis.algorithms import rmts_test, standard_algorithms
from repro.perf.telemetry import COUNTERS, write_bench_json
from repro.taskgen.generators import TaskSetGenerator

__all__ = ["run_bench_sweep", "main"]


def _sweep_config(samples: int):
    m = 8
    gen = TaskSetGenerator(n=3 * m, period_model="loguniform")
    algorithms = standard_algorithms()
    algorithms["RM-TS*"] = rmts_test(None, dedicate_over_bound=False)
    u_grid = [float(u) for u in np.arange(0.55, 1.001, 0.025)]
    return gen, algorithms, m, u_grid


def run_bench_sweep(
    *,
    samples: int = 100,
    jobs: int = 4,
    seed: int = 0,
) -> Dict[str, object]:
    """Run the serial and parallel modes; return the artifact payload."""
    gen, algorithms, m, u_grid = _sweep_config(samples)

    modes = (
        ("incremental-serial", 1),
        ("incremental-parallel", jobs),
    )
    counters: Dict[str, Dict[str, object]] = {}
    curves: Dict[str, Dict[str, List[float]]] = {}
    for name, jobs_ in modes:
        before = COUNTERS.snapshot()
        result = acceptance_sweep(
            algorithms,
            gen,
            processors=m,
            u_grid=u_grid,
            samples=samples,
            seed=seed,
            jobs=jobs_,
        )
        counters[name] = COUNTERS.delta_since(before)
        curves[name] = result.curves

    identical = all(
        c == curves["incremental-serial"] for c in curves.values()
    )
    if not identical:
        raise AssertionError(
            "sweep modes disagree on curves — bit-identity broken"
        )

    return {
        "kind": "bench_sweep",
        "host": {"cpu_count": os.cpu_count()},
        "config": {
            "experiment_shape": "E3 (general sets, log-uniform periods)",
            "processors": m,
            "n": 3 * m,
            "algorithms": list(algorithms),
            "u_grid_points": len(u_grid),
            "samples": samples,
            "seed": seed,
            "jobs": jobs,
        },
        "modes": {
            name: {"counters": counters[name]} for name, _ in modes
        },
        "curves_identical": identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench_sweep",
        description="Run the E3 sweep serially and in parallel and "
        "write the BENCH_sweep.json results artifact.",
    )
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="benchmarks/results/BENCH_sweep.json"
    )
    args = parser.parse_args(argv)
    payload = run_bench_sweep(
        samples=args.samples, jobs=args.jobs, seed=args.seed
    )
    write_bench_json(args.out, payload)
    print(f"curves identical: {payload['curves_identical']}")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
