"""Storage-layer benchmark: the ``BENCH_store.json`` artifact generator.

Records the two wins the persistent store exists for, as counts:

* **Restart warmth** — a loadgen pass against a freshly spawned
  ``python -m repro serve --store PATH`` (cold file), then an identical
  pass against a *new* server process over the same file.  The warm
  pass must reach at least the cold pass's cache-hit rate: results
  computed before the "restart" are served from sqlite instead of being
  recomputed.
* **Resume savings** — an acceptance sweep run to completion, then the
  same sweep interrupted at a cell budget and resumed.  The resumed leg
  recomputes only the unfinished cells (``resume_rta_calls`` is its
  ``rta_calls`` counter delta) and its curves are asserted
  bit-identical to the uninterrupted run's.

The artifact holds results only; serving latency and throughput are
``perfbench``'s ``serve-mix`` workload.

Usage::

    PYTHONPATH=src python -m repro.store.bench_store \
        --out benchmarks/results/BENCH_store.json
"""

from __future__ import annotations

import argparse
import os
import tempfile
from typing import Dict, Optional

from repro.analysis.acceptance import acceptance_sweep
from repro.analysis.algorithms import standard_algorithms
from repro.perf.telemetry import COUNTERS, write_bench_json
from repro.service import loadgen
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted
from repro.taskgen.generators import TaskSetGenerator

__all__ = ["run_bench_store", "main"]


def _loadgen_pass(store_path: str, *, requests: int, distinct: int,
                  seed: int) -> Dict[str, object]:
    """One spawned-server loadgen pass writing through *store_path*."""
    args = loadgen.build_parser().parse_args([
        "--spawn", "--port", "0",
        "--store", store_path,
        "--requests", str(requests),
        "--distinct", str(distinct),
        "--concurrency", "4",
        "--seed", str(seed),
    ])
    report = loadgen.run_loadgen(args)
    client = report["client"]
    return {
        "requests": requests,
        "distinct_tasksets": min(distinct, requests),
        "cache_hit_responses": client["cache_hit_responses"],
        "cache_hit_rate": round(client["cache_hit_responses"] / requests, 6),
        "status_counts": client["status_counts"],
    }


def _bench_serving(store_path: str, *, requests: int, distinct: int,
                   seed: int) -> Dict[str, object]:
    """Cold pass, simulated restart (new process), identical warm pass."""
    cold = _loadgen_pass(
        store_path, requests=requests, distinct=distinct, seed=seed
    )
    warm = _loadgen_pass(
        store_path, requests=requests, distinct=distinct, seed=seed
    )
    with ResultStore(store_path) as store:
        durable_entries = len(store)
    return {
        "cold": cold,
        "warm_after_restart": warm,
        "durable_entries": durable_entries,
        "warm_at_least_as_hot": (
            warm["cache_hit_responses"] >= cold["cache_hit_responses"]
        ),
    }


def _bench_resume(store_path: str, *, samples: int, seed: int,
                  jobs: int) -> Dict[str, object]:
    """Full sweep vs. interrupted-then-resumed sweep over the same grid."""
    gen = TaskSetGenerator(n=8, period_model="loguniform")
    algorithms = standard_algorithms()
    sweep_kwargs = dict(
        processors=4,
        u_grid=[0.60, 0.70, 0.80, 0.88, 0.94, 1.00],
        samples=samples,
        seed=seed,
        jobs=jobs,
    )
    cells_total = len(sweep_kwargs["u_grid"]) * samples
    cutoff = cells_total // 2

    full = acceptance_sweep(algorithms, gen, **sweep_kwargs)

    try:
        acceptance_sweep(
            algorithms, gen, store=store_path, max_new_cells=cutoff,
            **sweep_kwargs
        )
    except BudgetExhausted:
        pass  # the expected mid-run "kill"
    else:
        raise RuntimeError("interrupted leg unexpectedly ran to completion")

    progress: Dict[str, int] = {}
    before = COUNTERS.snapshot()
    resumed = acceptance_sweep(
        algorithms, gen, store=store_path, resume=True, progress=progress,
        **sweep_kwargs
    )
    resume_rta = COUNTERS.delta_since(before)["rta_calls"]

    if resumed.curves != full.curves:
        raise RuntimeError(
            "resumed sweep diverged from the uninterrupted run"
        )
    return {
        "cells_total": cells_total,
        "cells_resumed": progress["cells_resumed"],
        "cells_recomputed": progress["cells_computed"],
        "resume_rta_calls": resume_rta,
        "curves_bit_identical": True,  # enforced above
    }


def run_bench_store(
    *,
    requests: int = 120,
    distinct: int = 30,
    samples: int = 10,
    seed: int = 0,
    jobs: int = 1,
    out: Optional[str] = None,
    workdir: Optional[str] = None,
) -> Dict[str, object]:
    """Run both legs and (optionally) write the JSON artifact."""
    report: Dict[str, object] = {
        "kind": "store_bench",
        "config": {
            "requests": requests,
            "distinct_tasksets": distinct,
            "sweep_samples": samples,
            "seed": seed,
            "jobs": jobs,
        },
    }
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        report["serving"] = _bench_serving(
            os.path.join(tmp, "serving.db"),
            requests=requests, distinct=distinct, seed=seed,
        )
        report["sweep_resume"] = _bench_resume(
            os.path.join(tmp, "sweep.db"),
            samples=samples, seed=seed, jobs=jobs,
        )
    if out:
        write_bench_json(out, report)
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.bench_store",
        description="Benchmark the persistent result store "
        "(restart warmth + sweep resume).",
    )
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--distinct", type=int, default=30)
    parser.add_argument("--samples", type=int, default=10,
                        help="sweep samples per utilization level")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="write the artifact here (e.g. "
                        "benchmarks/results/BENCH_store.json)")
    args = parser.parse_args(argv)
    report = run_bench_store(
        requests=args.requests, distinct=args.distinct,
        samples=args.samples, seed=args.seed, jobs=args.jobs, out=args.out,
    )
    serving = report["serving"]
    resume = report["sweep_resume"]
    print(
        f"serving: cold hit rate {serving['cold']['cache_hit_rate']} -> "
        f"warm {serving['warm_after_restart']['cache_hit_rate']} "
        f"({serving['durable_entries']} durable entries)"
    )
    print(
        f"sweep:   resume recomputed {resume['cells_recomputed']}/"
        f"{resume['cells_total']} cells ({resume['resume_rta_calls']} "
        "RTA calls), curves identical"
    )
    if args.out:
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
