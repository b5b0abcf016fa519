"""Live cluster state: cross-tenant task identity and placement.

Rate-monotonic priority must hold *across* tenants, but
:class:`~repro.core.task.TaskSet` re-assigns tids ``0..N-1`` on
construction, so tenant-local tids cannot serve as cluster priorities.
:func:`cluster_tid` therefore encodes the RM order into one integer::

    tid = round(period * 10**6) * 10**8 + tenant * 100 + local

Smaller tid == shorter period == higher priority, with deterministic
tie-breaking by arrival order and local index.  The analysis compares
tids as Python ints, which never overflow, so no code needs a cap on
them today.  The caps keep the encoding inside a signed 64-bit integer,
the envelope any fixed-width store of a tid (a NumPy int64 column, a
SQLite INTEGER) would need: with periods capped at 10**4
(``ChurnConfig`` validates ``tmax``) the period key stays under 10**10
and the tid under 10**18 < 2**63, leaving room for a million tenants of
up to 99 tasks each.

:class:`ClusterState` keeps the persistent per-processor state
(:class:`~repro.core.partition.ProcessorState`, with its incremental
RTA context) plus the tenant registry and the placement map the
simulator journals.  All mutations flow through the small op vocabulary
(``place`` / ``withdraw`` / ``migrate`` / ``install``) that
:mod:`repro.cluster.simulator` records, so replaying a journal applies
the *same mutation sequence* in the same order — the float utilization
accumulators and cached analysis contexts end up bit-identical to the
live run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.events import ChurnConfig, TenantPool, pool_of
from repro.core.partition import ProcessorState
from repro.core.task import Task, TaskSet

__all__ = [
    "ClusterState",
    "cluster_tasks",
    "cluster_tid",
    "decode_tid",
]

_PERIOD_SCALE = 10**6
_PERIOD_SHIFT = 10**8
_LOCAL_DIGITS = 100
_MAX_TENANTS = _PERIOD_SHIFT // _LOCAL_DIGITS


def cluster_tid(period: float, tenant: int, local: int) -> int:
    """Cluster-unique task id encoding RM priority (see module doc)."""
    if not 0 <= tenant < _MAX_TENANTS:
        raise ValueError(
            f"tenant index {tenant} outside [0, {_MAX_TENANTS})"
        )
    period_key = int(round(period * _PERIOD_SCALE))
    return period_key * _PERIOD_SHIFT + tenant * _LOCAL_DIGITS + local


def decode_tid(tid: int) -> Tuple[int, int]:
    """Invert :func:`cluster_tid` to ``(tenant, local)``."""
    low = tid % _PERIOD_SHIFT
    return low // _LOCAL_DIGITS, low % _LOCAL_DIGITS


def cluster_tasks(tenant: int, taskset) -> Tuple[Task, ...]:
    """Tenant-local tasks re-identified for cluster-wide RM priority.

    *taskset* is the tenant's own :class:`~repro.core.task.TaskSet`
    (tids ``0..n-1`` in RM order); the result preserves that order under
    the cluster encoding.
    """
    return tuple(
        Task(
            cost=t.cost,
            period=t.period,
            tid=cluster_tid(t.period, tenant, t.tid),
            name=f"t{tenant}.{t.tid}",
        )
        for t in taskset
    )


@dataclass
class ClusterState:
    """Mutable cluster state shared by every churn policy.

    Incremental policies operate on ``processors`` (live
    :class:`~repro.core.partition.ProcessorState` with cached RTA
    contexts); repartition policies operate on the resident registry
    alone and re-run a :data:`~repro.analysis.algorithms.PARTITIONERS`
    entry per event.  Both keep ``hosts`` — the journaled placement map
    ``(tenant, local) -> processor indices`` — as the common currency
    for migration counting and replay.
    """

    config: ChurnConfig
    #: Live processors; ``None`` for repartition policies.
    processors: Optional[List[ProcessorState]] = None
    #: Residents in admission order: tenant -> cluster Task tuple.
    residents: Dict[int, Tuple[Task, ...]] = field(default_factory=dict)
    #: Placement map: (tenant, local) -> processor indices (piece order).
    hosts: Dict[Tuple[int, int], Tuple[int, ...]] = field(
        default_factory=dict
    )
    #: The configuration's tenant pool, bound on first use.
    _pool: Optional[TenantPool] = None

    @classmethod
    def fresh(cls, config: ChurnConfig, *, live: bool) -> "ClusterState":
        procs = (
            [ProcessorState(index=q) for q in range(config.processors)]
            if live
            else None
        )
        return cls(config=config, processors=procs)

    # -- tenant task sets ---------------------------------------------------

    def _bound_pool(self) -> TenantPool:
        pool = self._pool
        if pool is None:
            pool = self._pool = pool_of(self.config)
        return pool

    def taskset_of(self, tenant: int) -> TaskSet:
        """Tenant's own TaskSet, from the bound pool."""
        return self._bound_pool().taskset(tenant)

    def tasks_of(self, tenant: int) -> Tuple[Task, ...]:
        """Tenant's tasks under cluster-wide RM identity (cached in the
        pool)."""
        return self._bound_pool().tasks(tenant)

    # -- queries ------------------------------------------------------------

    def utilization(self) -> float:
        """Normalized cluster utilization in [0, 1]-ish.

        Computed over live processors when present and over the
        resident registry otherwise, summed left to right in list order
        (``+=``: the builtin ``sum`` compensates since Python 3.12), so
        it is bit-stable under the op replay.  Residents' ``C / T`` is
        divided inline, the same float ``Task.utilization`` returns.
        """
        total = 0.0
        if self.processors is not None:
            for proc in self.processors:
                total += proc.utilization
        else:
            for tasks in self.residents.values():
                for task in tasks:
                    total += task.cost / task.period
        return total / self.config.processors

    def resident_order(self) -> List[int]:
        """Tenants in admission order (dict insertion order)."""
        return list(self.residents)

    # -- mutation ops (the journaled vocabulary) ----------------------------

    def apply_place(self, tenant: int, host_lists: List[List[int]]) -> None:
        """Admit *tenant* whole-task onto the recorded hosts."""
        tasks = self.tasks_of(tenant)
        if len(host_lists) != len(tasks):
            raise ValueError(
                f"tenant {tenant}: {len(host_lists)} hosts for "
                f"{len(tasks)} tasks"
            )
        for local, (task, hosts) in enumerate(zip(tasks, host_lists)):
            if self.processors is not None:
                (index,) = hosts
                self.processors[index].add(task)
            self.hosts[(tenant, local)] = tuple(int(h) for h in hosts)
        self.residents[tenant] = tasks

    def apply_withdraw(self, tenant: int) -> int:
        """Remove every piece of *tenant* (the departure path).

        Live processors are asked only where ``hosts`` records a piece;
        every other processor holds none of the tenant's tasks.
        """
        tasks = self.residents.pop(tenant, None)
        if tasks is None:
            return 0
        removed = 0
        for local, task in enumerate(tasks):
            hosts = self.hosts.pop((tenant, local), ())
            if self.processors is not None:
                for index in hosts:
                    removed += self.processors[index].remove_parent(task.tid)
            else:
                removed += 1
        return removed

    def apply_migrate(
        self, tenant: int, local: int, src: int, dst: int
    ) -> None:
        """Relocate one whole task between live processors."""
        if self.processors is None:
            raise ValueError("migrate op needs live processors")
        task = self.residents[tenant][local]
        self.processors[src].remove_parent(task.tid)
        self.processors[dst].add(task)
        self.hosts[(tenant, local)] = (dst,)

    def apply_install(
        self,
        order: List[int],
        host_map: Dict[str, List[int]],
    ) -> None:
        """Wholesale placement replacement (repartition policies).

        *host_map* keys are ``"tenant:local"`` strings (JSON-safe).
        """
        hosts: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for key, procs in host_map.items():
            tenant_s, local_s = key.split(":")
            hosts[(int(tenant_s), int(local_s))] = tuple(int(h) for h in procs)
        self.install(order, hosts)

    def install(
        self,
        order: List[int],
        hosts: Dict[Tuple[int, int], Tuple[int, ...]],
    ) -> None:
        """:meth:`apply_install` from a placement map already keyed by
        ``(tenant, local)``, which the state then owns (the live
        repartition path, which has the map in that form)."""
        if self.processors is not None:
            raise ValueError("install op is for repartition state")
        self.residents = {t: self.tasks_of(t) for t in order}
        self.hosts = hosts

    def apply_op(self, op: List[object]) -> None:
        """Dispatch one journaled op (replay path)."""
        kind = op[0]
        if kind == "place":
            self.apply_place(int(op[1]), list(op[2]))  # type: ignore[arg-type]
        elif kind == "withdraw":
            self.apply_withdraw(int(op[1]))  # type: ignore[arg-type]
        elif kind == "migrate":
            self.apply_migrate(
                int(op[1]), int(op[2]), int(op[3]), int(op[4])  # type: ignore[arg-type]
            )
        elif kind == "install":
            self.apply_install(list(op[1]), dict(op[2]))  # type: ignore[arg-type]
        else:
            raise ValueError(f"unknown journal op {kind!r}")

    def hosts_as_json(self) -> Dict[str, List[int]]:
        """The placement map with JSON-safe string keys."""
        return {
            f"{tenant}:{local}": list(hosts)
            for (tenant, local), hosts in self.hosts.items()
        }
