"""The churn discrete-event loop: admission, departure, re-admission,
SLO metrics, store journaling and bit-identical resume.

Event handling is strictly sequential per run (parallelism lives one
level up, across grid cells — :mod:`repro.cluster.sweep`), so every
float accumulation happens in event order.  The journal record written
after each event contains the applied mutation ops plus a snapshot of
the wait queue and the metrics state; resuming therefore replays the
recorded ops (no re-analysis) to rebuild processor state whose subtask
lists, cached contexts and utilization accumulators are bit-identical
to the killed run's, and continues with the restored metrics.

The SLO metrics themselves use only simulated time and integer bucket
counts — no wall clock — so "identical final metrics" is a meaningful,
exact acceptance criterion.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.cluster.events import (
    ChurnConfig,
    ChurnEvent,
    build_event_timeline,
    churn_config_key,
)
from repro.cluster.policies import ChurnPolicy, make_policy
from repro.cluster.state import ClusterState
from repro.perf.telemetry import COUNTERS
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted

__all__ = [
    "ChurnMetrics",
    "ChurnResult",
    "simulate_churn",
]

#: Wait-time SLO bucket bounds in *simulated* time units.
WAIT_BOUNDS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: Normalized-utilization snapshot buckets (5 % wide).
UTIL_BOUNDS: Tuple[float, ...] = tuple(
    round(0.05 * i, 2) for i in range(1, 20)
)

#: Migrations-per-departure buckets.
MIGRATION_BOUNDS: Tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16)


def _bucket_index(bounds: Tuple[float, ...], value: float) -> int:
    """The first bucket whose bound is at least *value*; the overflow
    bucket ``len(bounds)`` above the last bound and for NaN.

    Plain bucket assignment, not a schedulability decision: the SLO
    histograms just need a total, deterministic bucketing of values.
    """
    if value != value:
        return len(bounds)
    return bisect_left(bounds, value)


@dataclass
class ChurnMetrics:
    """Deterministic SLO state: integer counts + sim-time accumulators.

    Serialization round-trips exactly (`json` preserves Python floats
    bit-for-bit via ``repr`` shortest-round-trip), which is what makes
    resumed runs finish with identical metrics.
    """

    arrivals: int = 0
    departures: int = 0
    admitted: int = 0
    rejected: int = 0
    queued: int = 0
    queue_timeouts: int = 0
    readmitted: int = 0
    migrations: int = 0
    #: Fixed-bucket SLO histograms (bounds above + overflow bin).
    wait_counts: List[int] = field(
        default_factory=lambda: [0] * (len(WAIT_BOUNDS) + 1)
    )
    util_counts: List[int] = field(
        default_factory=lambda: [0] * (len(UTIL_BOUNDS) + 1)
    )
    migration_counts: List[int] = field(
        default_factory=lambda: [0] * (len(MIGRATION_BOUNDS) + 1)
    )
    wait_sum: float = 0.0
    #: Time-weighted utilization integral and its clock.
    util_area: float = 0.0
    last_time: float = 0.0

    def advance_time(self, now: float, utilization: float) -> None:
        """Integrate ``utilization`` over ``[last_time, now]``."""
        if now > self.last_time:
            self.util_area += utilization * (now - self.last_time)
            self.last_time = now

    def observe_wait(self, wait: float) -> None:
        self.wait_counts[_bucket_index(WAIT_BOUNDS, wait)] += 1
        self.wait_sum += wait

    def observe_utilization(self, utilization: float) -> None:
        self.util_counts[_bucket_index(UTIL_BOUNDS, utilization)] += 1

    def observe_migrations(self, count: int) -> None:
        """Bucket one departure event's migration count (the running
        ``migrations`` total is maintained by the event handlers, which
        also see arrival-triggered repartition moves)."""
        self.migration_counts[
            _bucket_index(MIGRATION_BOUNDS, float(count))
        ] += 1

    # -- derived SLOs -------------------------------------------------------

    def rejection_ratio(self) -> float:
        """Rejected outright + expired in queue, over all arrivals."""
        if self.arrivals == 0:
            return 0.0
        return (self.rejected + self.queue_timeouts) / self.arrivals

    def steady_state_utilization(self) -> float:
        """Time-weighted mean normalized utilization."""
        if self.last_time <= 0.0:
            return 0.0
        return self.util_area / self.last_time

    def migrations_per_departure(self) -> float:
        if self.departures == 0:
            return 0.0
        return self.migrations / self.departures

    # -- (de)serialization --------------------------------------------------

    def as_state(self) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals,
            "departures": self.departures,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "queued": self.queued,
            "queue_timeouts": self.queue_timeouts,
            "readmitted": self.readmitted,
            "migrations": self.migrations,
            "wait_counts": list(self.wait_counts),
            "util_counts": list(self.util_counts),
            "migration_counts": list(self.migration_counts),
            "wait_sum": self.wait_sum,
            "util_area": self.util_area,
            "last_time": self.last_time,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ChurnMetrics":
        metrics = cls()
        for key, value in state.items():
            if key.endswith("_counts"):
                setattr(metrics, key, [int(v) for v in value])  # type: ignore[union-attr]
            elif isinstance(getattr(metrics, key), float):
                setattr(metrics, key, float(value))  # type: ignore[arg-type]
            else:
                setattr(metrics, key, int(value))  # type: ignore[arg-type]
        return metrics

    def slo_summary(self) -> Dict[str, object]:
        """The comparison currency of E16 / ``BENCH_churn.json``."""
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "queued": self.queued,
            "queue_timeouts": self.queue_timeouts,
            "readmitted": self.readmitted,
            "departures": self.departures,
            "migrations": self.migrations,
            "rejection_ratio": round(self.rejection_ratio(), 6),
            "steady_state_utilization": round(
                self.steady_state_utilization(), 6
            ),
            "migrations_per_departure": round(
                self.migrations_per_departure(), 6
            ),
            "wait_histogram": {
                "bounds": list(WAIT_BOUNDS),
                "counts": list(self.wait_counts),
                "sum": round(self.wait_sum, 6),
            },
            "utilization_histogram": {
                "bounds": list(UTIL_BOUNDS),
                "counts": list(self.util_counts),
            },
            "migration_histogram": {
                "bounds": list(MIGRATION_BOUNDS),
                "counts": list(self.migration_counts),
            },
        }


@dataclass
class ChurnResult:
    """Final state of one churn run."""

    config: ChurnConfig
    metrics: ChurnMetrics
    events_processed: int
    events_total: int
    namespace: Optional[str] = None

    def slo_summary(self) -> Dict[str, object]:
        return self.metrics.slo_summary()


def _handle_arrival(
    policy: ChurnPolicy,
    state: ClusterState,
    metrics: ChurnMetrics,
    queue: List[Tuple[int, float]],
    event: ChurnEvent,
) -> List[List[object]]:
    metrics.arrivals += 1
    outcome = policy.admit(state, event.tenant, rejoin=False)
    if outcome is not None:
        metrics.admitted += 1
        metrics.observe_wait(0.0)
        if outcome.migrations:
            metrics.migrations += outcome.migrations
            COUNTERS.cl_migrations += outcome.migrations
        COUNTERS.cl_admits += 1
        return outcome.ops
    if len(queue) < state.config.queue_limit:
        queue.append((event.tenant, event.time))
        metrics.queued += 1
        COUNTERS.cl_queued += 1
    else:
        metrics.rejected += 1
        COUNTERS.cl_rejects += 1
    return []


def _drain_queue(
    policy: ChurnPolicy,
    state: ClusterState,
    metrics: ChurnMetrics,
    queue: List[Tuple[int, float]],
    now: float,
    migration_budget: int,
) -> Tuple[List[List[object]], int]:
    """Expire stale entries, then re-admit FIFO (skip-blocked).

    Returns the applied ops and the migrations spent; the caller's
    per-event budget caps relocations across the whole drain.
    """
    ops: List[List[object]] = []
    spent = 0
    fresh: List[Tuple[int, float]] = []
    for tenant, arrived in queue:
        if now - arrived > state.config.max_wait:
            metrics.queue_timeouts += 1
            COUNTERS.cl_queue_timeouts += 1
        else:
            fresh.append((tenant, arrived))
    queue[:] = fresh
    remaining: List[Tuple[int, float]] = []
    for tenant, arrived in queue:
        outcome = policy.admit(
            state,
            tenant,
            rejoin=True,
            migration_budget=migration_budget - spent,
        )
        if outcome is None:
            remaining.append((tenant, arrived))
            continue
        ops.extend(outcome.ops)
        spent += outcome.migrations
        metrics.admitted += 1
        metrics.readmitted += 1
        metrics.observe_wait(now - arrived)
        if outcome.migrations:
            COUNTERS.cl_migrations += outcome.migrations
        COUNTERS.cl_admits += 1
        COUNTERS.cl_readmits += 1
    queue[:] = remaining
    return ops, spent


def _handle_departure(
    policy: ChurnPolicy,
    state: ClusterState,
    metrics: ChurnMetrics,
    queue: List[Tuple[int, float]],
    event: ChurnEvent,
) -> List[List[object]]:
    ops: List[List[object]] = []
    if event.tenant in state.residents:
        state.apply_withdraw(event.tenant)
        ops.append(["withdraw", event.tenant])
        metrics.departures += 1
        COUNTERS.cl_departures += 1
        reaction = policy.on_departure(state)
        ops.extend(reaction.ops)
        COUNTERS.cl_migrations += reaction.migrations
        drain_ops, drained = _drain_queue(
            policy,
            state,
            metrics,
            queue,
            event.time,
            state.config.k - reaction.migrations,
        )
        ops.extend(drain_ops)
        event_migrations = reaction.migrations + drained
        metrics.migrations += event_migrations
        metrics.observe_migrations(event_migrations)
    else:
        # Still waiting (or already rejected/expired): its lifetime is
        # spent, so a queued entry simply expires now.
        before = len(queue)
        queue[:] = [entry for entry in queue if entry[0] != event.tenant]
        expired = before - len(queue)
        metrics.queue_timeouts += expired
        COUNTERS.cl_queue_timeouts += expired
    return ops


def simulate_churn(
    config: ChurnConfig,
    *,
    store: Optional[Union[ResultStore, str]] = None,
    resume: bool = False,
    max_new_events: Optional[int] = None,
    progress: Optional[Dict[str, int]] = None,
) -> ChurnResult:
    """Run (or resume) one churn simulation.

    With *store*, every processed event is journaled under
    ``churn:<config-sha256>`` — key ``str(event_index)``, value the
    event record (ops + queue + metrics snapshot).  ``resume=True``
    loads the journal, replays the recorded ops to rebuild the exact
    cluster state, and computes only the remaining events.
    ``max_new_events`` bounds how many *new* events this call may
    process; hitting the bound raises
    :class:`~repro.store.journal.BudgetExhausted` after the journal
    write.
    """
    policy = make_policy(config)
    timeline = build_event_timeline(config)
    total = len(timeline)
    state = ClusterState.fresh(config, live=policy.live)
    metrics = ChurnMetrics()
    queue: List[Tuple[int, float]] = []

    owns_store = isinstance(store, str)
    backend: Optional[ResultStore] = (
        ResultStore(store) if owns_store else store  # type: ignore[arg-type]
    )
    # The journal namespace hashes the configuration; only a store reads it.
    namespace = (
        "churn:" + churn_config_key(config) if backend is not None else ""
    )
    try:
        start = 0
        if backend is not None and resume:
            journal = backend.get_namespace(namespace)
            while str(start) in journal:
                record = journal[str(start)]
                for op in record["ops"]:  # type: ignore[index]
                    state.apply_op(op)
                start += 1
            if start:
                last = journal[str(start - 1)]
                queue = [
                    (int(t), float(arrived))
                    for t, arrived in last["queue"]  # type: ignore[index]
                ]
                metrics = ChurnMetrics.from_state(
                    dict(last["metrics"])  # type: ignore[index, arg-type]
                )

        processed_new = 0
        # The state changes only inside an event, so each event's
        # starting utilization is the previous event's final one.
        utilization = state.utilization()
        for index in range(start, total):
            if max_new_events is not None and processed_new >= max_new_events:
                raise BudgetExhausted(
                    f"churn run stopped after {processed_new} new events "
                    f"({index}/{total} journaled); "
                    "rerun with resume=True to continue",
                    completed=index,
                    total=total,
                )
            event = timeline[index]
            metrics.advance_time(event.time, utilization)
            if event.kind == "arrival":
                ops = _handle_arrival(policy, state, metrics, queue, event)
            else:
                ops = _handle_departure(policy, state, metrics, queue, event)
            utilization = state.utilization()
            metrics.observe_utilization(utilization)
            COUNTERS.cl_events += 1
            if backend is not None:
                backend.put(
                    namespace,
                    str(index),
                    {
                        "time": event.time,
                        "kind": event.kind,
                        "tenant": event.tenant,
                        "ops": ops,
                        "queue": [[t, arrived] for t, arrived in queue],
                        "metrics": metrics.as_state(),
                    },
                )
                COUNTERS.cl_journal_events += 1
            processed_new += 1

        if progress is not None:
            progress.update(
                events_total=total,
                events_resumed=start,
                events_computed=processed_new,
            )
        return ChurnResult(
            config=config,
            metrics=metrics,
            events_processed=processed_new,
            events_total=total,
            namespace=namespace or None,
        )
    finally:
        if owns_store and backend is not None:
            backend.close()
