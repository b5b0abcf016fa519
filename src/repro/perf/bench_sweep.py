"""E3-scale sweep benchmark: the ``BENCH_sweep.json`` artifact generator.

Runs the paper's E3 acceptance sweep (general task sets, log-uniform
periods, full utilization grid) in two modes and records wall times,
hot-path counters and curve equality:

* ``incremental-serial`` — cached-context admission with warm-started
  fixed points, one process;
* ``incremental-parallel`` — the same, fanned out over ``--jobs`` worker
  processes by :mod:`repro.runner`.

Both must produce bit-identical curves; the run aborts loudly if they do
not.  Usage::

    PYTHONPATH=src python -m repro.perf.bench_sweep \
        --samples 100 --jobs 4 --repeats 3 \
        --out benchmarks/results/BENCH_sweep.json

Interpretation caveat (also recorded inside the artifact): on a
single-core container the parallel mode cannot beat the serial mode — it
measures pool overhead plus the (verified) bit-identity of the fan-out
path.  The parallel win multiplies the serial win only when
``os.cpu_count() >= jobs``.
"""

# repro-lint: disable-file=R8 -- this module IS a CLI entry point
# (python -m repro.perf.bench_sweep); its prints are the report.

from __future__ import annotations

import argparse
import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.acceptance import acceptance_sweep
from repro.analysis.algorithms import rmts_test, standard_algorithms
from repro.perf.telemetry import COUNTERS, write_bench_json
from repro.taskgen.generators import TaskSetGenerator

__all__ = ["run_bench_sweep", "main"]

#: Seed-revision wall time measured once (commit 7a7548e, samples=25,
#: same host class) next to the rebuild-per-probe engine of that time
#: (2.22 s, since removed) and the incremental engine (1.33 s).  Not
#: reproducible from this tree alone, hence recorded as an annotation,
#: not a measured mode.
_SEED_REFERENCE = {
    "commit": "7a7548e",
    "samples": 25,
    "wall_seconds_min": 2.87,
    "in_repo_legacy_wall_seconds_min": 2.22,
    "in_repo_incremental_wall_seconds_min": 1.33,
}


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
    repeats: int = 3,
    seed: int = 0,
) -> Dict[str, object]:
    """Measure the serial and parallel modes; return the artifact payload."""
    gen, algorithms, m, u_grid = _sweep_config(samples)

    def sweep(jobs_: int):
        return acceptance_sweep(
            algorithms,
            gen,
            processors=m,
            u_grid=u_grid,
            samples=samples,
            seed=seed,
            jobs=jobs_,
        )

    modes = (
        ("incremental-serial", 1),
        ("incremental-parallel", jobs),
    )
    walls: Dict[str, List[float]] = {name: [] for name, _ in modes}
    counters: Dict[str, Dict[str, object]] = {}
    curves: Dict[str, Dict[str, List[float]]] = {}
    # Interleave the modes across repeats so host-load drift hits all of
    # them equally; report the minimum (the least-perturbed run).
    for _ in range(repeats):
        for name, jobs_ in modes:
            before = COUNTERS.snapshot()
            t0 = time.perf_counter()
            result = sweep(jobs_)
            walls[name].append(time.perf_counter() - t0)
            counters[name] = COUNTERS.delta_since(before)
            curves[name] = result.curves

    identical = all(
        c == curves["incremental-serial"] for c in curves.values()
    )
    if not identical:
        raise AssertionError(
            "sweep modes disagree on curves — bit-identity broken"
        )

    payload: Dict[str, object] = {
        "kind": "bench_sweep",
        "host": {
            "cpu_count": os.cpu_count(),
            "note": (
                "parallel mode only beats serial when cpu_count >= jobs; "
                "on a 1-core host it measures pool overhead + bit-identity"
            ),
        },
        "config": {
            "experiment_shape": "E3 (general sets, log-uniform periods)",
            "processors": m,
            "n": 3 * m,
            "algorithms": list(algorithms),
            "u_grid_points": len(u_grid),
            "samples": samples,
            "seed": seed,
            "jobs": jobs,
            "repeats": repeats,
        },
        "modes": {
            name: {
                "wall_seconds_min": round(min(walls[name]), 4),
                "wall_seconds_all": [round(w, 4) for w in walls[name]],
                "counters": counters[name],
            }
            for name, _ in modes
        },
        "curves_identical": identical,
        "seed_reference": dict(
            _SEED_REFERENCE,
            note=(
                "historical walls; the rebuild-per-probe engine they "
                "compare against is no longer in the tree"
            ),
        ),
    }
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench_sweep",
        description="Measure the E3 sweep serially and in parallel and "
        "write the BENCH_sweep.json perf artifact.",
    )
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="benchmarks/results/BENCH_sweep.json"
    )
    args = parser.parse_args(argv)
    payload = run_bench_sweep(
        samples=args.samples,
        jobs=args.jobs,
        repeats=args.repeats,
        seed=args.seed,
    )
    write_bench_json(args.out, payload)
    modes = payload["modes"]
    for name, data in modes.items():  # type: ignore[union-attr]
        print(f"{name:>22}: {data['wall_seconds_min']:.4f}s min")
    print(f"curves identical: {payload['curves_identical']}")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
