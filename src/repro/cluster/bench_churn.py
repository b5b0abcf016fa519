"""Churn benchmark: the ``BENCH_churn.json`` artifact generator.

Runs the E16 policy×load grid and asserts the two determinism
guarantees the cluster layer is built on, so the committed artifact
documents them:

* **jobs invariance** — the grid computed at ``--jobs N`` is
  bit-identical to the serial run (every SLO metric, every histogram
  count);
* **resume identity** — a run killed mid-journal (``max_new_events``)
  and resumed from the store finishes with metrics identical to an
  uninterrupted run.

Usage::

    PYTHONPATH=src python -m repro.cluster.bench_churn \
        --out benchmarks/results/BENCH_churn.json
"""

from __future__ import annotations

import argparse
import os
import tempfile
from dataclasses import replace
from typing import Dict, List, Optional

from repro.cluster.events import ChurnConfig, tenant_pool
from repro.cluster.simulator import simulate_churn
from repro.cluster.sweep import grid_by_policy, run_churn_grid
from repro.perf.telemetry import COUNTERS, write_bench_json
from repro.store.journal import BudgetExhausted

__all__ = ["run_bench_churn", "main"]

#: The benchmark's policy menu: one plain fit, both churn-aware
#: variants, and one PARTITIONERS wrapper (>= 3 policies for E16).
BENCH_POLICIES = ("ff-rta", "bf-rejoin", "compact", "repart:rmts")

#: Arrival rates giving offered loads of roughly 0.4 / 0.7 / 0.9 with
#: the default processors=4, mean_lifetime=400, u_set=0.5.
BENCH_RATES = (0.008, 0.014, 0.018)


def _bench_resume(config: ChurnConfig) -> Dict[str, object]:
    """Kill a journaled run mid-way, resume it, compare final metrics."""
    full = simulate_churn(config)
    cutoff = max(1, full.events_total // 2)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "churn.db")
        try:
            simulate_churn(config, store=store_path, max_new_events=cutoff)
        except BudgetExhausted:
            pass  # the expected mid-run "kill"
        else:
            raise RuntimeError(
                "interrupted churn leg unexpectedly ran to completion"
            )
        progress: Dict[str, int] = {}
        resumed = simulate_churn(
            config, store=store_path, resume=True, progress=progress
        )
    identical = resumed.metrics.as_state() == full.metrics.as_state()
    if not identical:
        raise RuntimeError("resumed churn run diverged from the full run")
    return {
        "events_total": full.events_total,
        "events_resumed": progress["events_resumed"],
        "events_recomputed": progress["events_computed"],
        "metrics_identical": True,  # enforced above
    }


def run_bench_churn(
    *,
    processors: int = 4,
    horizon: int = 60,
    seed: int = 0,
    jobs: int = 2,
    out: Optional[str] = None,
) -> Dict[str, object]:
    """Run the grid + determinism legs; optionally write the artifact."""
    base = ChurnConfig(
        processors=processors,
        horizon=horizon,
        seed=seed,
    )
    policies = list(BENCH_POLICIES)
    rates = [float(r) for r in BENCH_RATES]

    # Each leg starts from cold tenant pools, so both generate their
    # tenants (forked workers would otherwise inherit warm pools).
    tenant_pool.cache_clear()
    before = COUNTERS.snapshot()
    rows = run_churn_grid(base, policies, rates, jobs=jobs)
    counter_delta = COUNTERS.delta_since(before)

    tenant_pool.cache_clear()
    serial_rows = run_churn_grid(base, policies, rates, jobs=1)
    if rows != serial_rows:
        raise RuntimeError(
            f"jobs={jobs} churn grid diverged from the serial run"
        )

    resume = _bench_resume(
        replace(base, policy="compact", arrival_rate=rates[-1])
    )

    report: Dict[str, object] = {
        "kind": "churn_bench",
        "config": {
            "processors": processors,
            "horizon": horizon,
            "seed": seed,
            "jobs": jobs,
            "policies": policies,
            "arrival_rates": rates,
            "u_set": base.u_set,
            "mean_lifetime": base.mean_lifetime,
            "k": base.k,
            "queue_limit": base.queue_limit,
            "max_wait": base.max_wait,
        },
        "grid": grid_by_policy(rows),
        "determinism": {
            "jobs_invariant": True,  # enforced above
            "resume": resume,
        },
        "counters": {
            name: value
            for name, value in counter_delta.items()
            if name.startswith("cl_") and value
        },
    }
    if out:
        write_bench_json(out, report)
    return report


def _policy_line(policy: str, rows: List[Dict[str, object]]) -> str:
    worst = rows[-1]
    return (
        f"{policy:>14}: reject {worst['rejection_ratio']}, "
        f"util {worst['steady_state_utilization']}, "
        f"mig/dep {worst['migrations_per_departure']} "
        f"@ load {worst['offered_load']}"
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.bench_churn",
        description="Benchmark churn policies (E16) and the cluster "
        "determinism guarantees.",
    )
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--horizon", type=int, default=60,
                        help="tenant arrivals per grid cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default=None,
                        help="write the artifact here (e.g. "
                        "benchmarks/results/BENCH_churn.json)")
    args = parser.parse_args(argv)
    report = run_bench_churn(
        processors=args.processors, horizon=args.horizon,
        seed=args.seed, jobs=args.jobs, out=args.out,
    )
    grid = report["grid"]
    for policy in sorted(grid):
        print(_policy_line(policy, grid[policy]))
    resume = report["determinism"]["resume"]
    print(
        f"resume identical after {resume['events_resumed']}/"
        f"{resume['events_total']} journaled events"
    )
    if args.out:
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
