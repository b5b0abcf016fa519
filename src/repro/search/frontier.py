"""Frontier mapper: stochastic bisection with Wilson-interval verdicts.

For an acceptance test and a task-set shape distribution, the *empirical
acceptance frontier* at level ``p`` is the normalized utilization where
the acceptance probability crosses ``p`` (acceptance is monotonically
decreasing in ``U_M`` in aggregate).  A fixed grid spends most of its
samples far from that crossing; this mapper instead bisects on ``U_M``
and, at each midpoint, draws probes *adaptively* — in batches, only
until the Wilson score interval around the observed acceptance rate
excludes the target level (or a per-level cap is reached).  Levels far
from the frontier resolve within one batch; the budget concentrates at
the transition, which is exactly where the information is.

The result is a bracket ``[lo, hi]`` of half-width at most the
configured target, each bisection step backed by a confidence-bounded
classification, plus the probe accounting needed to compare against the
grid-equivalent cost (``BENCH_search.json``'s efficiency contract).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro._util.stats import wilson_interval
from repro.analysis.acceptance import AcceptanceTest
from repro.analysis.algorithms import PARTITIONERS
from repro.core.bounds import ll_bound, light_task_threshold, rmts_bound_cap
from repro.perf.telemetry import COUNTERS
from repro.search.config import SearchConfig, search_namespace
from repro.search.probes import (
    PROBE_WIDTH,
    evaluate_counted,
    evaluate_probe,
    probe_key,
)
from repro.store.backend import ResultStore
from repro.store.journal import Journal

__all__ = [
    "LevelVerdict",
    "FrontierResult",
    "map_frontier",
    "measure_sharpness",
    "acceptance_test_for",
]


def acceptance_test_for(algorithm: str) -> AcceptanceTest:
    """The PARTITIONERS entry as a boolean acceptance test."""
    partitioner = PARTITIONERS[algorithm]
    return lambda ts, m: partitioner(ts, m).success


@dataclass(frozen=True)
class LevelVerdict:
    """Classification of one utilization level against the target."""

    u_norm: float
    samples: int
    accepted: int
    ci_lo: float
    ci_hi: float
    #: Whether the Wilson interval excluded the target level (``False``
    #: means the per-level sample cap decided by point estimate).
    decided: bool
    #: ``True`` when the level's acceptance rate sits above the target.
    above: bool

    @property
    def p_hat(self) -> float:
        return self.accepted / self.samples

    def as_dict(self) -> Dict[str, object]:
        return {
            "u_norm": self.u_norm,
            "samples": self.samples,
            "accepted": self.accepted,
            "p_hat": self.p_hat,
            "ci": [self.ci_lo, self.ci_hi],
            "decided": self.decided,
            "above": self.above,
        }


@dataclass(frozen=True)
class FrontierResult:
    """A mapped acceptance frontier with its probe accounting."""

    config: SearchConfig
    #: Final bisection bracket: acceptance stays above the target level
    #: at ``lo`` and below it at ``hi``.
    lo: float
    hi: float
    levels: List[LevelVerdict]
    probes_computed: int
    probes_resumed: int
    undecided_levels: int

    @property
    def u_star(self) -> float:
        """Frontier point estimate: the bracket midpoint."""
        return 0.5 * (self.lo + self.hi)

    @property
    def interval_half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def probes_total(self) -> int:
        """Acceptance-verdict lookups consumed (computed + journal hits)."""
        return self.probes_computed + self.probes_resumed

    @property
    def grid_equivalent_calls(self) -> int:
        """Cost of the fixed grid this search replaces.

        A grid resolving the frontier to the same ``half_width`` needs a
        point every ``2 * half_width`` across ``[u_min, u_max]``, and at
        matched confidence each point near the transition needs the same
        per-level budget the mapper caps at — the grid cannot know in
        advance which points are far from the frontier.
        """
        config = self.config
        span = config.u_max - config.u_min
        points = int(span / (2.0 * config.half_width)) + 1
        return points * config.max_samples_per_level

    @property
    def efficiency_vs_grid(self) -> float:
        """How many times cheaper than the grid-equivalent sweep."""
        if self.probes_total == 0:
            return float("inf")
        return self.grid_equivalent_calls / self.probes_total

    def theory(self) -> Dict[str, float]:
        """The paper's thresholds for this configuration's task count."""
        n = self.config.generator.n
        return {
            "theta": ll_bound(n),
            "light_threshold": light_task_threshold(n),
            "rmts_cap": rmts_bound_cap(n),
        }

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form (what the CLI and the benchmark serialize)."""
        config = self.config
        return {
            "algorithm": config.algorithm,
            "processors": config.processors,
            "n": config.generator.n,
            "seed": config.seed,
            "level": config.level,
            "confidence": config.confidence,
            "half_width_target": config.half_width,
            "u_min": config.u_min,
            "u_max": config.u_max,
            "lo": self.lo,
            "hi": self.hi,
            "u_star": self.u_star,
            "interval_half_width": self.interval_half_width,
            "levels": [v.as_dict() for v in self.levels],
            "undecided_levels": self.undecided_levels,
            "probes_computed": self.probes_computed,
            "probes_resumed": self.probes_resumed,
            "probes_total": self.probes_total,
            "grid_equivalent_calls": self.grid_equivalent_calls,
            "efficiency_vs_grid": self.efficiency_vs_grid,
            "theory": self.theory(),
        }


def _classify_level(
    journal: Journal,
    payload,
    u_norm: float,
    config: SearchConfig,
    *,
    jobs: int,
) -> LevelVerdict:
    """Adaptively sample *u_norm* until the Wilson CI settles the verdict."""
    samples = 0
    accepted = 0
    ci_lo, ci_hi = 0.0, 1.0
    decided = False
    while samples < config.max_samples_per_level:
        step = min(config.batch, config.max_samples_per_level - samples)
        rows = evaluate_counted(
            journal,
            [(u_norm, idx) for idx in range(samples, samples + step)],
            payload,
            jobs=jobs,
        )
        samples += step
        accepted += sum(1 for row in rows if row[0])
        ci_lo, ci_hi = wilson_interval(
            accepted, samples, confidence=config.confidence
        )
        if ci_lo > config.level or ci_hi < config.level:
            decided = True
            break
    COUNTERS.se_levels += 1
    above = ci_lo > config.level if decided else accepted / samples > config.level
    return LevelVerdict(
        u_norm=u_norm,
        samples=samples,
        accepted=accepted,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        decided=decided,
        above=above,
    )


def map_frontier(
    config: SearchConfig,
    *,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    max_new_probes: Optional[int] = None,
) -> FrontierResult:
    """Locate *config*'s acceptance frontier by stochastic bisection.

    With a *store*, every probe is journaled under
    ``search:<config-sha256>`` and a rerun (after a kill, or with a
    different target level sharing the probe identity) resumes from the
    journal.  ``max_new_probes`` simulates a mid-run kill by budget; see
    :class:`~repro.store.journal.BudgetExhausted`.

    Results are bit-identical at any ``jobs`` level and across
    kill/resume cycles: each probe derives from
    ``cell_rng(seed, u_key(u), sample)`` and the bisection trajectory is
    a pure function of the probe verdicts.
    """
    journal = Journal(
        store,
        search_namespace(config),
        worker=evaluate_probe,
        key_fn=probe_key,
        width=PROBE_WIDTH,
        budget=max_new_probes,
    )
    payload = (
        acceptance_test_for(config.algorithm),
        config.generator,
        config.processors,
        config.seed,
    )

    def classify(u_norm: float) -> LevelVerdict:
        return _classify_level(journal, payload, u_norm, config, jobs=jobs)

    levels: List[LevelVerdict] = []
    low_end = classify(config.u_min)
    levels.append(low_end)
    high_end = classify(config.u_max)
    levels.append(high_end)
    if not low_end.above:
        # The whole range is below the frontier: report a degenerate
        # bracket at the low end rather than bisecting noise.
        lo = hi = config.u_min
    elif high_end.above:
        lo = hi = config.u_max
    else:
        lo, hi = config.u_min, config.u_max
        for _ in range(config.max_rounds):
            if hi - lo <= 2.0 * config.half_width:
                break
            mid = 0.5 * (lo + hi)
            verdict = classify(mid)
            levels.append(verdict)
            if verdict.above:
                lo = mid
            else:
                hi = mid
    return FrontierResult(
        config=config,
        lo=lo,
        hi=hi,
        levels=levels,
        probes_computed=journal.computed,
        probes_resumed=journal.resumed,
        undecided_levels=sum(1 for v in levels if not v.decided),
    )


def measure_sharpness(
    config: SearchConfig,
    *,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    high_level: float = 0.9,
    low_level: float = 0.1,
) -> Dict[str, object]:
    """Width of the acceptance transition: ``u(low_level) - u(high_level)``.

    Gopalakrishnan's sharp-threshold analysis predicts the acceptance
    probability collapses from near 1 to near 0 within a narrow
    utilization window; this measures that window by mapping the
    frontier at two extra levels.  Both extra bisections share the main
    run's probe namespace (the level is not part of the probe identity),
    so already-journaled probes are reused.
    """
    upper = map_frontier(
        replace(config, level=high_level), store=store, jobs=jobs
    )
    lower = map_frontier(
        replace(config, level=low_level), store=store, jobs=jobs
    )
    return {
        "high_level": high_level,
        "low_level": low_level,
        "u_at_high_level": upper.u_star,
        "u_at_low_level": lower.u_star,
        "transition_width": lower.u_star - upper.u_star,
        "probes_computed": upper.probes_computed + lower.probes_computed,
        "probes_resumed": upper.probes_resumed + lower.probes_resumed,
    }
