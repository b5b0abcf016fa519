"""Search benchmark: the ``BENCH_search.json`` artifact generator.

Runs the committed frontier configuration plus a quick adversarial
search, and asserts the contracts the search layer is built on, so the
committed artifact documents them:

* **efficiency** — locating the frontier to the committed half-width
  costs at least :data:`MIN_EFFICIENCY` times fewer acceptance calls
  than the grid-equivalent sweep at matched resolution and budget;
* **jobs invariance** — the frontier mapped at ``--jobs N`` is
  bit-identical to the serial run (every level verdict, every bracket
  end);
* **resume identity** — a search killed mid-journal
  (``max_new_probes``) and resumed from the store finishes with a
  result identical to an uninterrupted run;
* **witness replay** — the quick adversarial search finds a verified
  rejection above the ``2Theta/(1+Theta)`` cap whose witness replays
  confirmed from its RNG coordinates.

Usage::

    PYTHONPATH=src python -m repro.search.bench_search \
        --out benchmarks/results/BENCH_search.json
"""

from __future__ import annotations

import argparse
import os
import tempfile
from typing import Dict, Optional

from repro.perf.telemetry import COUNTERS, write_bench_json
from repro.search.adversarial import AdversarialConfig, adversarial_search
from repro.search.config import SearchConfig
from repro.search.frontier import map_frontier
from repro.search.witness import replay_witness, witness_record
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted
from repro.taskgen.generators import TaskSetGenerator

__all__ = [
    "run_bench_search",
    "bench_search_config",
    "main",
    "MIN_EFFICIENCY",
]

#: The ``BENCH_search.json`` contract: the frontier search must spend at
#: least this many times fewer acceptance calls than the grid-equivalent
#: sweep (nightly fails below it).
MIN_EFFICIENCY = 3.0

#: Cross-entropy budget for the benchmark's adversarial leg — small, but
#: enough rounds for the elite refit to matter.
BENCH_ADVERSARIAL_ROUNDS = 3
BENCH_ADVERSARIAL_POPULATION = 8


def bench_search_config(*, seed: int = 0) -> SearchConfig:
    """The committed frontier configuration (acceptance criteria config)."""
    return SearchConfig(
        algorithm="rmts",
        generator=TaskSetGenerator(n=12),
        processors=4,
        seed=seed,
    )


def _bench_resume(config: SearchConfig, *, jobs: int) -> Dict[str, object]:
    """Kill a journaled frontier run mid-way, resume, compare results."""
    full = map_frontier(config, jobs=jobs)
    cutoff = max(1, full.probes_computed // 2)
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(os.path.join(tmp, "search.db"))
        try:
            try:
                map_frontier(
                    config, store=store, jobs=jobs, max_new_probes=cutoff
                )
            except BudgetExhausted:
                pass  # the expected mid-run "kill"
            else:
                raise RuntimeError(
                    "interrupted frontier leg unexpectedly ran to completion"
                )
            resumed = map_frontier(config, store=store, jobs=jobs)
        finally:
            store.close()
    if resumed.probes_resumed != cutoff:
        raise RuntimeError(
            f"resumed run replayed {resumed.probes_resumed} journaled "
            f"probes, expected {cutoff}"
        )

    def comparable(result) -> Dict[str, object]:
        payload = result.as_dict()
        # The probe accounting legitimately differs across a kill/resume
        # cycle (journal hits vs fresh computation); everything else —
        # bracket, levels, verdicts — must be bit-identical.
        for key in ("probes_computed", "probes_resumed"):
            payload.pop(key)
        return payload

    identical = comparable(resumed) == comparable(full)
    if not identical:
        raise RuntimeError("resumed frontier run diverged from the full run")
    return {
        "probes_total": full.probes_total,
        "probes_journaled_at_kill": cutoff,
        "probes_recomputed": resumed.probes_computed,
        "result_identical": True,  # enforced above
    }


def run_bench_search(
    *,
    seed: int = 0,
    jobs: int = 2,
    out: Optional[str] = None,
) -> Dict[str, object]:
    """Run all four legs; optionally write the artifact."""
    config = bench_search_config(seed=seed)

    before = COUNTERS.snapshot()
    frontier = map_frontier(config, jobs=jobs)

    if frontier.efficiency_vs_grid < MIN_EFFICIENCY:
        raise RuntimeError(
            f"frontier search spent {frontier.probes_total} probes vs "
            f"grid-equivalent {frontier.grid_equivalent_calls} — "
            f"{frontier.efficiency_vs_grid:.2f}x is below the "
            f"{MIN_EFFICIENCY:g}x contract"
        )

    serial = map_frontier(config, jobs=1)
    if frontier.as_dict() != serial.as_dict():
        raise RuntimeError(
            f"jobs={jobs} frontier diverged from the serial run"
        )

    resume = _bench_resume(config, jobs=jobs)

    adv_config = AdversarialConfig(
        algorithm="rmts",
        generator=TaskSetGenerator(n=12),
        processors=4,
        seed=seed,
        rounds=BENCH_ADVERSARIAL_ROUNDS,
        population=BENCH_ADVERSARIAL_POPULATION,
    )
    adversarial = adversarial_search(adv_config, jobs=jobs)
    if not adversarial.found:
        raise RuntimeError(
            "benchmark adversarial search found no verified rejection"
        )
    record = witness_record(adversarial)
    replay = replay_witness(record, jobs=jobs)
    if not replay["confirmed"]:
        raise RuntimeError(f"witness replay failed: {replay}")

    counter_delta = COUNTERS.delta_since(before)
    frontier_payload = frontier.as_dict()
    report: Dict[str, object] = {
        "kind": "search_bench",
        "config": {
            "algorithm": config.algorithm,
            "n": config.generator.n,
            "processors": config.processors,
            "seed": seed,
            "jobs": jobs,
            "confidence": config.confidence,
            "level": config.level,
            "half_width": config.half_width,
            "u_min": config.u_min,
            "u_max": config.u_max,
            "batch": config.batch,
            "max_samples_per_level": config.max_samples_per_level,
            "adversarial_rounds": adv_config.rounds,
            "adversarial_population": adv_config.population,
        },
        "frontier": frontier_payload,
        "efficiency": {
            "probes_total": frontier.probes_total,
            "grid_equivalent_calls": frontier.grid_equivalent_calls,
            "speedup_vs_grid": frontier.efficiency_vs_grid,
            "min_required": MIN_EFFICIENCY,
        },
        "determinism": {
            "jobs_invariant": True,  # enforced above
            "resume": resume,
            "witness_replay_confirmed": True,  # enforced above
        },
        "adversarial": {
            "found": adversarial.found,
            "best": adversarial.as_dict()["best"],
            "candidates": adversarial.candidates_computed,
            "rounds": [
                {
                    "round": entry["round"],
                    "best_margin": entry["best_margin"],
                    "rejections": entry["rejections"],
                }
                for entry in adversarial.history
            ],
        },
        "counters": {
            name: value
            for name, value in counter_delta.items()
            if name.startswith("se_") and value
        },
    }
    if out:
        write_bench_json(out, report)
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search.bench_search",
        description="Benchmark the search layer: frontier efficiency vs "
        "grid, determinism guarantees, adversarial witness replay.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default=None,
                        help="write the artifact here (e.g. "
                        "benchmarks/results/BENCH_search.json)")
    args = parser.parse_args(argv)
    report = run_bench_search(seed=args.seed, jobs=args.jobs, out=args.out)
    frontier = report["frontier"]
    efficiency = report["efficiency"]
    resume = report["determinism"]["resume"]
    best = report["adversarial"]["best"]
    print(
        f"frontier: U* = {frontier['u_star']:.4f} in "
        f"[{frontier['lo']:.4f}, {frontier['hi']:.4f}] "
        f"(cap {frontier['theory']['rmts_cap']:.4f})"
    )
    print(
        f"efficiency: {efficiency['probes_total']} probes vs "
        f"{efficiency['grid_equivalent_calls']} grid-equivalent -> "
        f"{efficiency['speedup_vs_grid']:.1f}x "
        f"(contract: >= {efficiency['min_required']:g}x)"
    )
    print(
        f"resume: identical after {resume['probes_journaled_at_kill']}/"
        f"{resume['probes_total']} journaled probes"
    )
    print(
        f"witness: rejected at U_M={best['u_reject']:.4f} "
        f"(margin {best['margin']:.4f} above cap), replay confirmed"
    )
    if args.out:
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
