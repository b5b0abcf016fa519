"""Churn configuration and deterministic event timelines.

Every random quantity of a churn run — inter-arrival gaps, lifetimes,
tenant task sets — draws from its own :func:`repro.runner.cell_rng`
stream, keyed ``(seed, stream, i)``.  A tenant's task set or lifetime is
therefore a pure function of the configuration and the tenant index,
independent of process, worker count or event order; this is what makes
journal replay and ``--jobs N`` runs bit-identical.

Those draws are shared through a :class:`TenantPool`, one per
``(TaskSetGenerator, seed, u_set)``: every cell of a policy × rate grid
reads the same tenants' task sets and rate-independent timeline draws
instead of regenerating them, and every policy at one arrival rate reads
the same sorted timeline (see :func:`tenant_pool`).

The configuration is content-addressed exactly like sweep checkpoints
(:func:`repro._util.keys.content_key`): floats are encoded with
``float.hex()`` and the SHA-256 of the canonical JSON names the
``churn:<sha256>`` journal namespace, so a resumed run can never mix
events from a different configuration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro._util.keys import content_key
from repro.core.task import Task, TaskSet
from repro.runner import cell_rng
from repro.taskgen.generators import TaskSetGenerator

__all__ = [
    "ChurnConfig",
    "ChurnEvent",
    "TenantPool",
    "build_event_timeline",
    "churn_config_key",
    "pool_of",
    "tenant_pool",
    "tenant_taskset",
]

#: ``cell_rng`` stream discriminators (second key component).
_ARRIVAL_STREAM = 0
_LIFETIME_STREAM = 1
_TASKSET_STREAM = 2

#: Pareto shape for heavy-tailed lifetimes; ``alpha=2`` keeps the mean
#: finite (``mean_lifetime``) while the variance diverges.
_PARETO_SHAPE = 2.0

#: Pools kept alive by :func:`tenant_pool` (least recently used first
#: out).  A grid needs one; the second lets two interleaved grids each
#: keep theirs.  A 60-tenant pool holds about 75 KB.
_POOL_SLOTS = 2

#: The float-typed :class:`ChurnConfig` fields besides ``trace``.
_FLOAT_FIELDS = (
    "arrival_rate", "mean_lifetime", "u_set", "tmin", "tmax", "max_wait",
)


@dataclass(frozen=True)
class ChurnConfig:
    """One churn-simulation configuration (hashable, content-addressed).

    ``u_set`` is the *total* utilization of one tenant's task set;
    the offered steady-state load of the cluster is approximately
    ``arrival_rate * mean_lifetime * u_set / processors`` by Little's
    law, which :meth:`offered_load` reports.
    """

    policy: str = "ff-rta"
    processors: int = 8
    seed: int = 0
    #: Number of tenant arrivals in the run.
    horizon: int = 200
    #: Mean arrivals per simulated time unit ("poisson" model).
    arrival_rate: float = 0.02
    #: Mean tenant lifetime in simulated time units.
    mean_lifetime: float = 400.0
    #: "exponential" | "pareto" (heavy-tailed) | "fixed".
    lifetime_model: str = "exponential"
    #: "poisson" | "trace" (explicit (arrival_time, lifetime) rows).
    arrival_model: str = "poisson"
    #: Trace rows for ``arrival_model="trace"``; lifetimes <= 0 fall
    #: back to the configured lifetime model.
    trace: Tuple[Tuple[float, float], ...] = ()
    #: Tasks per tenant task set (cluster tids reserve two digits).
    tasks_per_set: int = 4
    #: Total utilization of one tenant's task set.
    u_set: float = 0.5
    #: Task-generator shape (see :class:`~repro.taskgen.TaskSetGenerator`).
    period_model: str = "loguniform"
    tmin: float = 10.0
    tmax: float = 1000.0
    #: Migration budget: at most ``k`` task relocations per event.
    k: int = 2
    #: Bounded wait queue for rejected arrivals.
    queue_limit: int = 8
    #: Queued task sets expire after this much simulated time.
    max_wait: float = 200.0

    def __post_init__(self) -> None:
        # ``400`` and ``400.0`` are one configuration: coerce so both get
        # one journal namespace.
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(
            self,
            "trace",
            tuple((float(t), float(life)) for t, life in self.trace),
        )
        if self.processors < 1:
            raise ValueError("need at least one processor")
        if self.horizon < 1 and not self.trace:
            raise ValueError("need at least one arrival")
        if not 1 <= self.tasks_per_set <= 99:
            raise ValueError(
                "tasks_per_set must lie in [1, 99] (cluster task ids "
                "reserve two decimal digits for the local index)"
            )
        if self.arrival_model not in ("poisson", "trace"):
            raise ValueError(f"unknown arrival model {self.arrival_model!r}")
        if self.lifetime_model not in ("exponential", "pareto", "fixed"):
            raise ValueError(f"unknown lifetime model {self.lifetime_model!r}")
        if self.arrival_model == "trace" and not self.trace:
            raise ValueError("trace arrival model needs trace rows")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if any(not math.isfinite(v) for row in self.trace for v in row):
            raise ValueError("trace rows must be finite")
        if self.arrival_rate <= 0.0 or self.mean_lifetime <= 0.0:
            raise ValueError("arrival_rate and mean_lifetime must be > 0")
        if self.u_set <= 0.0:
            raise ValueError("u_set must be > 0")
        if self.k < 0 or self.queue_limit < 0:
            raise ValueError("k and queue_limit must be >= 0")
        if self.max_wait <= 0.0:
            raise ValueError("max_wait must be > 0")
        if self.tmax > 10_000.0:
            raise ValueError(
                "tmax must stay <= 10000 so every cluster task id "
                "(period-keyed priority) stays below 2**63"
            )
        if self.horizon > 10**6:
            raise ValueError("horizon is capped at 10**6 tenants")

    def generator(self) -> TaskSetGenerator:
        """The tenant task-set generator this configuration implies."""
        return TaskSetGenerator(
            n=self.tasks_per_set,
            period_model=self.period_model,
            tmin=self.tmin,
            tmax=self.tmax,
        )

    def offered_load(self) -> float:
        """Expected steady-state utilization demand, by Little's law."""
        return (
            self.arrival_rate * self.mean_lifetime * self.u_set
            / self.processors
        )


@dataclass(frozen=True)
class ChurnEvent:
    """One timeline entry; ``tenant`` indexes the arrival sequence."""

    time: float
    #: "arrival" | "departure".
    kind: str
    tenant: int

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        """Total event order: time, then departures before arrivals
        (capacity frees up before the next admission attempt), then the
        tenant index — deterministic even on exact time ties."""
        return (self.time, 0 if self.kind == "departure" else 1, self.tenant)


def churn_config_key(config: ChurnConfig) -> str:
    """Content key of one churn configuration: any parameter change
    yields a fresh ``churn:`` namespace."""
    return content_key("churn", config=asdict(config))


def _draw_taskset(
    generator: TaskSetGenerator, seed: int, u_set: float, tenant: int
) -> TaskSet:
    return generator.generate(
        u_norm=u_set,
        processors=1,
        seed=cell_rng(seed, _TASKSET_STREAM, tenant),
    )


class TenantPool:
    """Per-tenant draws shared by every configuration with one pool key.

    The key is ``(generator, seed, u_set)``: a tenant's task set depends
    on nothing else, so configurations that differ only in policy,
    arrival rate, ``k``, ``queue_limit``, ``max_wait`` or processor
    count read the same sets.  The timeline draws are kept in their
    rate- and mean-independent form (one standard exponential per
    arrival gap; one standard exponential or Pareto variate per
    lifetime), which the timeline scales exactly as NumPy would: the
    ``exponential(scale)`` draw *is* ``scale * standard_exponential()``.

    Each tenant's cluster :class:`~repro.core.task.Task` tuple
    (:func:`~repro.cluster.state.cluster_tasks`) is kept beside its set,
    so the cells of a grid share those too.  So is each arrival stream's
    sorted timeline (:meth:`timeline`), keyed by the configuration
    fields it depends on: the policies of a grid at one rate read one.

    Entries are filled on first use with ``dict.setdefault``, so
    threads that race on one tenant keep the first (identical) value
    and no lock is needed.
    """

    def __init__(
        self, generator: TaskSetGenerator, seed: int, u_set: float
    ) -> None:
        self.generator = generator
        self.seed = seed
        self.u_set = u_set
        self._tasksets: Dict[int, TaskSet] = {}
        self._tasks: Dict[int, Tuple[Task, ...]] = {}
        self._gaps: Dict[int, float] = {}
        self._lifetimes: Dict[Tuple[str, int], float] = {}
        self._timelines: Dict[Tuple[object, ...], Tuple[ChurnEvent, ...]] = {}

    def taskset(self, tenant: int) -> TaskSet:
        """Tenant *tenant*'s task set (see :func:`tenant_taskset`)."""
        found = self._tasksets.get(tenant)
        if found is None:
            found = self._tasksets.setdefault(
                tenant,
                _draw_taskset(self.generator, self.seed, self.u_set, tenant),
            )
        return found

    def tasks(self, tenant: int) -> Tuple[Task, ...]:
        """Tenant *tenant*'s tasks under cluster-wide RM identity."""
        found = self._tasks.get(tenant)
        if found is None:
            # Imported here: the state module imports this one.
            from repro.cluster.state import cluster_tasks

            found = self._tasks.setdefault(
                tenant, cluster_tasks(tenant, self.taskset(tenant))
            )
        return found

    def gap(self, tenant: int) -> float:
        """Tenant *tenant*'s arrival gap at rate 1."""
        found = self._gaps.get(tenant)
        if found is None:
            rng = cell_rng(self.seed, _ARRIVAL_STREAM, tenant)
            found = self._gaps.setdefault(
                tenant, float(rng.standard_exponential())
            )
        return found

    def lifetime(self, model: str, mean: float, tenant: int) -> float:
        """Tenant *tenant*'s lifetime under *model* with mean *mean*."""
        if model == "fixed":
            return mean
        found = self._lifetimes.get((model, tenant))
        if found is None:
            rng = cell_rng(self.seed, _LIFETIME_STREAM, tenant)
            draw = (
                rng.pareto(_PARETO_SHAPE) if model == "pareto"
                else rng.standard_exponential()
            )
            found = self._lifetimes.setdefault((model, tenant), float(draw))
        if model == "pareto":
            # Standard Pareto with x_m chosen so the mean is mean_lifetime:
            # mean = alpha * x_m / (alpha - 1).
            x_m = mean * (_PARETO_SHAPE - 1.0) / _PARETO_SHAPE
            return x_m * (1.0 + found)
        return mean * found

    def timeline(self, config: ChurnConfig) -> List[ChurnEvent]:
        """*config*'s sorted timeline, built once per arrival stream.

        The list is fresh on every call; the events are frozen, so no
        caller can change what the next one reads.
        """
        key = (
            config.arrival_model,
            config.arrival_rate,
            config.horizon,
            config.trace,
            config.lifetime_model,
            config.mean_lifetime,
        )
        found = self._timelines.get(key)
        if found is None:
            found = self._timelines.setdefault(
                key, tuple(_sorted_timeline(self, config))
            )
        return list(found)


@lru_cache(maxsize=_POOL_SLOTS)
def tenant_pool(
    generator: TaskSetGenerator, seed: int, u_set: float
) -> TenantPool:
    """The pool for one key, created on first use.

    At most ``_POOL_SLOTS`` pools stay cached; a caller keeps its own
    reference, so evicting a pool never changes what a running
    simulation reads.  Forked workers fill their own copies.
    ``tenant_pool.cache_clear()`` starts every pool over.
    """
    return TenantPool(generator, seed, u_set)


def pool_of(config: ChurnConfig) -> TenantPool:
    """The tenant pool *config* reads."""
    return tenant_pool(config.generator(), config.seed, config.u_set)


def build_event_timeline(config: ChurnConfig) -> List[ChurnEvent]:
    """The full, sorted arrival/departure timeline of a run.

    Pure function of the configuration: arrival gap ``i`` and tenant
    ``i``'s lifetime each come from ``cell_rng(seed, stream, i)``, so
    the timeline is identical no matter where or how often it is built.
    The draws come from the configuration's :class:`TenantPool`, so a
    grid draws them once for all its policies and rates, and sorts one
    timeline per rate (:meth:`TenantPool.timeline`).
    """
    return pool_of(config).timeline(config)


def _sorted_timeline(pool: TenantPool, config: ChurnConfig) -> List[ChurnEvent]:
    """Build and sort *config*'s timeline from *pool*'s draws."""
    model, mean = config.lifetime_model, config.mean_lifetime
    arrivals: List[Tuple[int, float, float]] = []
    if config.arrival_model == "trace":
        for tenant, (time, lifetime) in enumerate(config.trace):
            if lifetime <= 0.0:
                lifetime = pool.lifetime(model, mean, tenant)
            arrivals.append((tenant, float(time), float(lifetime)))
    else:
        scale = 1.0 / config.arrival_rate
        now = 0.0
        for tenant in range(config.horizon):
            now += scale * pool.gap(tenant)
            arrivals.append((tenant, now, pool.lifetime(model, mean, tenant)))

    events = [
        ChurnEvent(time=time, kind="arrival", tenant=tenant)
        for tenant, time, _ in arrivals
    ]
    events.extend(
        ChurnEvent(time=time + lifetime, kind="departure", tenant=tenant)
        for tenant, time, lifetime in arrivals
    )
    return sorted(events, key=lambda e: e.sort_key)


def tenant_taskset(config: ChurnConfig, tenant: int) -> TaskSet:
    """Tenant *tenant*'s task set (total utilization ``u_set``).

    The generator consumes ``cell_rng(seed, stream, tenant)`` directly,
    so the set depends only on the configuration and the tenant index.
    This builds the set afresh; simulations read it through
    :func:`pool_of` instead.
    """
    return _draw_taskset(config.generator(), config.seed, config.u_set, tenant)
