"""Adversarial task-set search: cross-entropy over generator parameters.

RM-TS provably admits every task set up to ``min(Lambda(tau),
2Theta/(1+Theta))``; above the cap ``2Theta/(1+Theta)`` the guarantee
ends and rejections are *allowed*.  This module searches for the
sharpest such rejections: concrete task sets the algorithm rejects at
the lowest normalized utilization **above** the cap.  The objective per
candidate is its *rejection margin* ``u_reject - cap``; the smaller the
margin, the tighter the empirical complement to the proven bound — a
margin of zero would mean the bound is exactly tight for that shape.

The outer loop is a standard cross-entropy method over the continuous
:class:`~repro.taskgen.generators.TaskSetGenerator` knobs ``(max_util,
tmax)``: draw a Gaussian population, score each candidate (a full
breakdown bisection plus a verified rejection probe), refit the Gaussian
to the elite fraction, repeat.  Every candidate evaluation is journaled
into the result store under ``search:<config-sha256>`` (see
:func:`repro.search.config.adversarial_config_key`), so an interrupted
search resumes byte-identically and extending ``rounds`` reuses the
journaled prefix.  The best candidate is emitted as a replayable witness
(:mod:`repro.search.witness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bounds import best_bound_value, rmts_bound_cap
from repro.analysis.breakdown import STATUS_CAP_HIT, breakdown_search
from repro.perf.telemetry import COUNTERS
from repro.runner import cell_rng
from repro.search.config import adversarial_config_key
from repro.search.frontier import acceptance_test_for
from repro.search.probes import evaluate_counted
from repro.store.backend import ResultStore
from repro.store.journal import Journal
from repro.taskgen.generators import TaskSetGenerator

__all__ = [
    "AdversarialConfig",
    "AdversarialResult",
    "adversarial_search",
    "candidate_key",
    "evaluate_candidate",
]

#: Margin assigned to candidates that produced no verified rejection
#: (cap-censored bisection, or infeasible verification scale).  Any real
#: witness beats this, so penalized candidates never enter the elite set
#: while at least one candidate in the round succeeded.
PENALTY_MARGIN = 1.0

# Row layout of one journaled candidate evaluation (a plain JSON list so
# the journal round-trips exactly; see Journal).
FOUND, MARGIN, U_REJECT, BOUND, CAP, BREAKDOWN = 0, 1, 2, 3, 4, 5
STATUS, RTA_CALLS, RTA_ITERS, MAX_UTIL, TMAX = 6, 7, 8, 9, 10
ROW_WIDTH = TMAX + 1


@dataclass(frozen=True)
class AdversarialConfig:
    """One cross-entropy adversarial run.

    ``max_util_range`` and ``tmax_range`` bound the searched generator
    knobs (per-task utilization cap and period spread); the initial
    Gaussian covers each range and samples are clipped back into it.
    ``base_u_norm`` is the utilization at which candidate *shapes* are
    drawn — the bisection rescales, so it only needs to be low enough to
    be feasible for every candidate cap.
    """

    algorithm: str = "rmts"
    generator: TaskSetGenerator = field(
        default_factory=lambda: TaskSetGenerator(n=12)
    )
    processors: int = 4
    seed: int = 0
    rounds: int = 6
    population: int = 12
    elite_frac: float = 0.25
    base_u_norm: float = 0.4
    tolerance: float = 2e-3
    margin_floor: float = 2e-3
    max_util_range: Tuple[float, float] = (0.5, 1.0)
    tmax_range: Tuple[float, float] = (100.0, 10000.0)

    def __post_init__(self) -> None:
        from repro.analysis.algorithms import PARTITIONERS

        if self.algorithm not in PARTITIONERS:
            known = ", ".join(sorted(PARTITIONERS))
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known: {known}"
            )
        if self.processors < 1:
            raise ValueError("processors must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0.0 < self.elite_frac <= 1.0:
            raise ValueError("elite_frac must lie in (0, 1]")
        if not self.base_u_norm > 0.0:
            raise ValueError("base_u_norm must be positive")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if not self.margin_floor > 0.0:
            raise ValueError("margin_floor must be positive")
        for name, (low, high) in (
            ("max_util_range", self.max_util_range),
            ("tmax_range", self.tmax_range),
        ):
            if not high > low > 0.0:
                raise ValueError(f"{name} must satisfy 0 < low < high")

    def namespace(self) -> str:
        """Journal namespace for this run's candidate evaluations."""
        return "search:" + adversarial_config_key(
            algorithm=self.algorithm,
            generator=self.generator,
            processors=self.processors,
            seed=self.seed,
            population=self.population,
            elite_frac=self.elite_frac,
            base_u_norm=self.base_u_norm,
            tolerance=self.tolerance,
            margin_floor=self.margin_floor,
            max_util_range=self.max_util_range,
            tmax_range=self.tmax_range,
        )


def candidate_key(round_idx: int, cand_idx: int, *_rest) -> str:
    """Journal key of one candidate: its position in the CE trajectory.

    The drawn knob values are a pure function of ``(seed, round_idx)``
    via the elite statistics, so the position alone identifies the
    candidate within a configuration's namespace.
    """
    return f"{int(round_idx)}:{int(cand_idx)}"


def evaluate_candidate(payload, item) -> List[object]:
    """Worker: score one candidate generator parameterization.

    Draws a shape from the candidate generator, bisects its breakdown,
    then *verifies* a rejection at the smallest feasible utilization at
    or above ``cap + margin_floor`` (walking outward when the acceptance
    test is locally non-monotone in the scale).  Returns the journal row
    described by the ``FOUND`` .. ``TMAX`` index constants.
    """
    test, generator, processors, seed, base_u_norm, tolerance, margin_floor = (
        payload
    )
    round_idx, cand_idx, max_util, tmax = item
    rng = cell_rng(seed, int(round_idx), int(cand_idx))
    candidate = replace(
        generator, max_util=float(max_util), tmax=float(tmax)
    )
    taskset = candidate.generate(
        u_norm=float(base_u_norm), processors=processors, seed=rng
    )
    cap = rmts_bound_cap(len(taskset))
    bound = min(best_bound_value(taskset), cap)
    result = breakdown_search(test, taskset, processors, tolerance=tolerance)

    found = 0
    margin = PENALTY_MARGIN
    u_reject = 0.0
    rta_calls = 0
    rta_iters = 0
    base_norm = taskset.normalized_utilization(processors)
    feasible_max = base_norm / taskset.max_utilization
    if result.status != STATUS_CAP_HIT:
        # The bisection's upper bracket end is a known-rejected scale;
        # a witness additionally needs its rejection to sit above the
        # cap, where the theorem permits rejections.
        candidate_u = max(result.value + result.bracket, cap + margin_floor)
        while candidate_u < feasible_max:
            scaled = taskset.scaled_costs(candidate_u / base_norm)
            before = COUNTERS.snapshot()
            accepted = bool(test(scaled, processors))
            delta = COUNTERS.delta_since(before)
            if not accepted:
                found = 1
                margin = candidate_u - cap
                u_reject = candidate_u
                rta_calls = int(delta["rta_calls"])
                rta_iters = int(delta["rta_iterations"])
                break
            # Accepted above the bracket end: acceptance is not exactly
            # monotone in the scale; double the margin and retry.
            candidate_u = cap + 2.0 * (candidate_u - cap)
    return [
        int(found),
        float(margin),
        float(u_reject),
        float(bound),
        float(cap),
        float(result.value),
        str(result.status),
        int(rta_calls),
        int(rta_iters),
        float(max_util),
        float(tmax),
    ]


@dataclass(frozen=True)
class AdversarialResult:
    """Outcome of one adversarial search."""

    config: AdversarialConfig
    #: Journal row of the best (smallest-margin) verified rejection, or
    #: ``None`` when no candidate produced one.
    best: Optional[List[object]]
    #: ``(round_idx, cand_idx)`` of the best candidate.
    best_position: Optional[Tuple[int, int]]
    #: Per-round summaries: best/mean margin, verified-rejection count
    #: and the refit Gaussian, in round order.
    history: List[Dict[str, object]]
    candidates_computed: int
    candidates_resumed: int

    @property
    def found(self) -> bool:
        return self.best is not None

    def as_dict(self) -> Dict[str, object]:
        config = self.config
        best: Optional[Dict[str, object]] = None
        if self.best is not None and self.best_position is not None:
            best = {
                "round": self.best_position[0],
                "candidate": self.best_position[1],
                "margin": self.best[MARGIN],
                "u_reject": self.best[U_REJECT],
                "bound": self.best[BOUND],
                "cap": self.best[CAP],
                "breakdown": self.best[BREAKDOWN],
                "status": self.best[STATUS],
                "max_util": self.best[MAX_UTIL],
                "tmax": self.best[TMAX],
            }
        return {
            "algorithm": config.algorithm,
            "processors": config.processors,
            "n": config.generator.n,
            "seed": config.seed,
            "rounds": config.rounds,
            "population": config.population,
            "found": self.found,
            "best": best,
            "history": self.history,
            "candidates_computed": self.candidates_computed,
            "candidates_resumed": self.candidates_resumed,
        }


def _initial_distribution(
    config: AdversarialConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    ranges = np.array(
        [config.max_util_range, config.tmax_range], dtype=float
    )
    mean = ranges.mean(axis=1)
    std = (ranges[:, 1] - ranges[:, 0]) / 2.0
    return mean, std


def adversarial_search(
    config: AdversarialConfig,
    *,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    max_new_candidates: Optional[int] = None,
) -> AdversarialResult:
    """Run the cross-entropy search described in the module docstring.

    Deterministic at any ``jobs`` level: the round-``r`` population is
    drawn from ``cell_rng(seed, r)`` given the elite statistics of the
    journaled rounds ``< r``, and each candidate is scored by the
    journaled, order-preserving :class:`~repro.store.journal.Journal`.
    With a *store*, rerunning (same configuration, any round budget)
    replays the journaled prefix instead of recomputing it.
    """
    journal = Journal(
        store,
        config.namespace(),
        worker=evaluate_candidate,
        key_fn=candidate_key,
        width=ROW_WIDTH,
        budget=max_new_candidates,
    )
    payload = (
        acceptance_test_for(config.algorithm),
        config.generator,
        config.processors,
        config.seed,
        config.base_u_norm,
        config.tolerance,
        config.margin_floor,
    )
    lows = np.array(
        [config.max_util_range[0], config.tmax_range[0]], dtype=float
    )
    highs = np.array(
        [config.max_util_range[1], config.tmax_range[1]], dtype=float
    )
    mean, std = _initial_distribution(config)
    elite_count = max(1, int(round(config.population * config.elite_frac)))

    best: Optional[List[object]] = None
    best_position: Optional[Tuple[int, int]] = None
    history: List[Dict[str, object]] = []
    for round_idx in range(config.rounds):
        rng = cell_rng(config.seed, round_idx)
        draws = rng.normal(
            loc=mean, scale=std, size=(config.population, 2)
        )
        draws = np.clip(draws, lows, highs)
        items = [
            (round_idx, cand_idx, float(draw[0]), float(draw[1]))
            for cand_idx, draw in enumerate(draws)
        ]
        rows = evaluate_counted(journal, items, payload, jobs=jobs)
        COUNTERS.se_ce_rounds += 1

        margins = np.array([row[MARGIN] for row in rows], dtype=float)
        order = np.argsort(margins, kind="stable")
        elites = draws[order[:elite_count]]
        mean = elites.mean(axis=0)
        # Noise floor keeps later rounds exploring even after the
        # elite set collapses onto one point.
        std = np.maximum(elites.std(axis=0), (highs - lows) * 1e-3)

        for cand_idx, row in enumerate(rows):
            if row[FOUND] and (best is None or row[MARGIN] < best[MARGIN]):
                best = row
                best_position = (round_idx, cand_idx)
        history.append(
            {
                "round": round_idx,
                "best_margin": float(margins.min()),
                "mean_margin": float(margins.mean()),
                "rejections": int(sum(row[FOUND] for row in rows)),
                "mean": [float(v) for v in mean],
                "std": [float(v) for v in std],
            }
        )
    return AdversarialResult(
        config=config,
        best=best,
        best_position=best_position,
        history=history,
        candidates_computed=journal.computed,
        candidates_resumed=journal.resumed,
    )
