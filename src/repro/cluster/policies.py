"""Churn admission policies: incremental fits, churn-aware variants and
repartition wrappers over the :data:`PARTITIONERS` registry.

Two families share one interface:

* **Incremental** policies keep persistent
  :class:`~repro.core.partition.ProcessorState` and admit whole tasks
  via the cached exact-RTA context
  (:meth:`~repro.core.partition.ProcessorState.schedulable_with`) —
  first-fit / best-fit / worst-fit, plus the churn-aware
  ``bf-rejoin`` (best-fit only for wait-queue re-admissions, which
  tend to be the hard-to-place sets) and ``compact`` (first-fit with a
  defragmenting pass on departure: drain the least-utilized processor
  into the others, at most ``k`` RTA-verified moves per event).
* **Repartition** policies (``repart:<name>``) re-run a whole-taskset
  partitioner from :data:`repro.analysis.algorithms.PARTITIONERS` on
  the union of residents each event, and accept the new placement only
  if at most ``k`` resident tasks change hosts.  On departure, when the
  re-partition fails or would migrate too much, the old placement
  simply drops the departed tenant's pieces — exactly the
  :meth:`~repro.core.partition.PartitionResult.remove_task` path.

Every policy decision is a pure function of the
:class:`~repro.cluster.state.ClusterState` contents, so identical
journals replay to identical decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.algorithms import PARTITIONERS
from repro.cluster.events import ChurnConfig
from repro.cluster.state import ClusterState, decode_tid
from repro.core.partition import (
    PartitionResult,
    ProcessorSnapshot,
    ProcessorState,
)
from repro.core.task import Task, TaskSet

__all__ = [
    "AdmitOutcome",
    "CHURN_POLICIES",
    "ChurnPolicy",
    "CompactPolicy",
    "FitPolicy",
    "RepartitionPolicy",
    "make_policy",
]


@dataclass
class AdmitOutcome:
    """What an admission attempt did to the state."""

    #: Journal ops already applied to the state.
    ops: List[List[object]]
    #: Resident tasks that changed hosts during the attempt.
    migrations: int = 0


class ChurnPolicy:
    """Base class; subclasses mutate the state and report ops."""

    #: Registry key (set by :func:`make_policy`).
    name: str = ""
    #: Whether the policy maintains live ProcessorStates.
    live: bool = True

    def __init__(self, config: ChurnConfig) -> None:
        self.config = config

    def admit(
        self,
        state: ClusterState,
        tenant: int,
        *,
        rejoin: bool,
        migration_budget: Optional[int] = None,
    ) -> Optional[AdmitOutcome]:
        """Try to admit *tenant*; mutate the state and return the ops on
        success, ``None`` (state unchanged) on rejection.

        *migration_budget* is the number of task relocations the current
        event may still spend (defaults to ``config.k``); the simulator
        threads it through queue drains so one event never migrates more
        than ``k`` tasks in total."""
        raise NotImplementedError

    def on_departure(self, state: ClusterState) -> AdmitOutcome:
        """React to freed capacity (called after the withdraw op);
        default: do nothing."""
        return AdmitOutcome(ops=[])


# ---------------------------------------------------------------------------
# Incremental fit policies
# ---------------------------------------------------------------------------


def _best_fit_key(proc: ProcessorState) -> Tuple[float, int]:
    return (-proc.utilization, proc.index)


def _worst_fit_key(proc: ProcessorState) -> Tuple[float, int]:
    return (proc.utilization, proc.index)


#: Fit orders as sort keys; ``None`` is first-fit, the processors' own
#: index order, which needs no sort.
_FIT_ORDERS: Dict[
    str, Optional[Callable[[ProcessorState], Tuple[float, int]]]
] = {
    "first": None,
    "best": _best_fit_key,
    "worst": _worst_fit_key,
}


class FitPolicy(ChurnPolicy):
    """Whole-task placement against live processors, exact-RTA verified.

    Tasks are placed in tenant-local RM order; each task goes to the
    first processor, in the fit order, whose incremental RTA admits it.
    Admission is a transaction: each processor is snapshotted before its
    first trial add, and a partial placement is rolled back by restoring
    those snapshots (:meth:`~repro.core.partition.ProcessorState.restore`),
    which puts back the rows, the utilization accumulator and the
    analysis context exactly, without re-running any RTA.
    """

    def __init__(
        self,
        config: ChurnConfig,
        order: str = "first",
        rejoin_order: Optional[str] = None,
    ) -> None:
        super().__init__(config)
        self._order = _FIT_ORDERS[order]
        self._rejoin_order = _FIT_ORDERS[rejoin_order or order]

    def admit(
        self,
        state: ClusterState,
        tenant: int,
        *,
        rejoin: bool,
        migration_budget: Optional[int] = None,
    ) -> Optional[AdmitOutcome]:
        assert state.processors is not None
        key = self._rejoin_order if rejoin else self._order
        tasks = state.tasks_of(tenant)
        snapshots: Dict[int, ProcessorSnapshot] = {}
        host_lists: List[List[int]] = []
        for task in tasks:
            target: Optional[ProcessorState] = None
            order = (
                state.processors if key is None
                else sorted(state.processors, key=key)
            )
            for proc in order:
                if proc.schedulable_with(task):
                    target = proc
                    break
            if target is None:
                for index, snapshot in snapshots.items():
                    state.processors[index].restore(snapshot)
                return None
            if target.index not in snapshots:
                snapshots[target.index] = target.snapshot()
            target.add(task)
            host_lists.append([target.index])
        # Trial adds already happened; record residency + the journal op.
        for local, (task, hosts) in enumerate(zip(tasks, host_lists)):
            state.hosts[(tenant, local)] = tuple(hosts)
        state.residents[tenant] = tasks
        return AdmitOutcome(ops=[["place", tenant, host_lists]])


class CompactPolicy(FitPolicy):
    """First-fit admission + defragmenting compaction on departure.

    After a departure, the least-utilized non-empty processor is drained
    best-fit into the others — at most ``k`` moves, each re-verified by
    the destination's incremental RTA before the task relocates.  Fully
    draining a processor recreates the contiguous free capacity that
    first-fit admission relies on.
    """

    def on_departure(self, state: ClusterState) -> AdmitOutcome:
        assert state.processors is not None
        ops: List[List[object]] = []
        budget = self.config.k
        if budget == 0:
            return AdmitOutcome(ops=ops)
        non_empty = [p for p in state.processors if p.rows]
        if len(non_empty) <= 1:
            return AdmitOutcome(ops=ops)
        source = min(non_empty, key=lambda p: (p.utilization, p.index))
        # Fit policies place whole tasks only, so each row's parent is the
        # candidate a destination probes.
        movable = sorted(source.rows, key=lambda row: row.priority)
        # Best-fit order is a total order (ties break on the index), so
        # re-sorting after a move equals sorting afresh.
        destinations = sorted(
            (p for p in state.processors if p is not source),
            key=_best_fit_key,
        )
        for row in movable:
            if len(ops) >= budget:
                break
            for dst in destinations:
                if dst.schedulable_with(row.parent):
                    tenant, local = decode_tid(row.parent.tid)
                    state.apply_migrate(tenant, local, source.index, dst.index)
                    ops.append(
                        ["migrate", tenant, local, source.index, dst.index]
                    )
                    destinations.sort(key=_best_fit_key)
                    break
        return AdmitOutcome(ops=ops, migrations=len(ops))


# ---------------------------------------------------------------------------
# Repartition policies (PARTITIONERS wrappers)
# ---------------------------------------------------------------------------

_TID = attrgetter("tid")


class RepartitionPolicy(ChurnPolicy):
    """Re-run a registry partitioner on the resident union every event."""

    live = False

    def __init__(self, config: ChurnConfig, partitioner_name: str) -> None:
        super().__init__(config)
        self.partitioner_name = partitioner_name
        self._partition = PARTITIONERS[partitioner_name]

    def _union(
        self, state: ClusterState, extra: Optional[int]
    ) -> Tuple[TaskSet, List[Tuple[int, int]]]:
        """Union task set over residents (+ the arriving tenant) and the
        ``(tenant, local)`` owner of each union task, in union order.

        The union holds the residents' own cluster tasks, sorted by tid
        (:meth:`TaskSet.from_ordered`), with owners decoded from the
        tids.  Cluster tids order by period, then tenant, then local
        index, which is the ``(period, residency, local)`` order
        ``TaskSet`` gives whenever no two periods are equal.  With a
        period tie (or a tid order the rounded period key inverts), the
        union is built as ``TaskSet`` would: one stable sort by period
        over the residency order, and each task built afresh by
        :meth:`TaskSet.from_columns` with tid ``i`` and name ``tau{i}``.
        Partitioners read tids only as an order, so both unions give one
        partition.
        """
        tenants = state.resident_order()
        if extra is not None:
            tenants.append(extra)
        tasks: List[Task] = []
        for tenant in tenants:
            tasks += state.tasks_of(tenant)
        ordered = sorted(tasks, key=_TID)
        periods = [task.period for task in ordered]
        if all(a < b for a, b in zip(periods, periods[1:])):
            union = TaskSet.from_ordered(ordered)
            return union, [decode_tid(task.tid) for task in ordered]
        owners = [decode_tid(task.tid) for task in tasks]
        order = sorted(range(len(tasks)), key=lambda i: tasks[i].period)
        union = TaskSet.from_columns(
            [tasks[i].cost for i in order], [tasks[i].period for i in order]
        )
        return union, [owners[i] for i in order]

    def _try_install(
        self,
        state: ClusterState,
        extra: Optional[int],
        *,
        migration_budget: int,
    ) -> Optional[AdmitOutcome]:
        """Partition the union; install if feasible within the budget."""
        if not state.residents and extra is None:
            state.apply_install([], {})
            return AdmitOutcome(ops=[["install", [], {}]])
        union, owners = self._union(state, extra)
        result = self._partition(union, self.config.processors)
        if not result.success:
            return None
        hosting = result.host_map()
        new_hosts: Dict[Tuple[int, int], Tuple[int, ...]] = {
            owner: tuple(hosting[task.tid])
            for task, owner in zip(union, owners)
        }
        # New hosts of the residents that change hosts (an arriving
        # tenant has no old hosts, so it never counts).
        old_hosts = state.hosts
        moved = [
            hosts
            for key, hosts in new_hosts.items()
            if old_hosts.get(key, hosts) != hosts
        ]
        if len(moved) > migration_budget:
            return None
        if not self._migrations_verified(result, moved):
            return None
        order = state.resident_order()
        if extra is not None:
            order.append(extra)
        host_map = {
            f"{tenant}:{local}": list(hosts)
            for (tenant, local), hosts in new_hosts.items()
        }
        state.install(order, new_hosts)
        return AdmitOutcome(
            ops=[["install", order, host_map]], migrations=len(moved)
        )

    @staticmethod
    def _migrations_verified(
        result: PartitionResult, moved: List[Tuple[int, ...]]
    ) -> bool:
        """Re-verify processors receiving migrated tasks with exact RTA.

        The partitioner admitted every placement already; this re-checks
        the destination processors of actual migrations (*moved*, their
        new hosts) independently (EDF-dispatched partitions are covered
        by the partitioner's own exact DBF test instead).
        """
        if result.scheduler != "fixed":
            return True
        touched = set()
        for hosts in moved:
            touched.update(hosts)
        return all(
            result.processors[q].is_schedulable() for q in sorted(touched)
        )

    def admit(
        self,
        state: ClusterState,
        tenant: int,
        *,
        rejoin: bool,
        migration_budget: Optional[int] = None,
    ) -> Optional[AdmitOutcome]:
        budget = (
            self.config.k if migration_budget is None else migration_budget
        )
        return self._try_install(state, tenant, migration_budget=budget)

    def on_departure(self, state: ClusterState) -> AdmitOutcome:
        """Re-partition the survivors; fall back to the pruned placement
        (old hosts minus the departed tenant) when infeasible or too
        migratory — capacity is then reclaimed lazily by later events."""
        outcome = self._try_install(
            state, None, migration_budget=self.config.k
        )
        if outcome is not None:
            return outcome
        # Keep the placement the withdraw op already pruned; journal the
        # surviving map wholesale so replay stays a pure state copy.
        order = state.resident_order()
        host_map = state.hosts_as_json()
        return AdmitOutcome(ops=[["install", order, host_map]])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _policy_factories() -> Dict[str, Callable[[ChurnConfig], ChurnPolicy]]:
    factories: Dict[str, Callable[[ChurnConfig], ChurnPolicy]] = {
        "ff-rta": lambda cfg: FitPolicy(cfg, "first"),
        "bf-rta": lambda cfg: FitPolicy(cfg, "best"),
        "wf-rta": lambda cfg: FitPolicy(cfg, "worst"),
        "bf-rejoin": lambda cfg: FitPolicy(
            cfg, "first", rejoin_order="best"
        ),
        "compact": lambda cfg: CompactPolicy(cfg, "first"),
    }
    for name in PARTITIONERS:
        factories[f"repart:{name}"] = (
            lambda cfg, _name=name: RepartitionPolicy(cfg, _name)
        )
    return factories


#: Policy registry: incremental fits, churn-aware variants, and one
#: ``repart:<name>`` wrapper per ``PARTITIONERS`` entry.
CHURN_POLICIES: Dict[str, Callable[[ChurnConfig], ChurnPolicy]] = (
    _policy_factories()
)


def make_policy(config: ChurnConfig) -> ChurnPolicy:
    """Instantiate the policy named by ``config.policy``."""
    try:
        factory = CHURN_POLICIES[config.policy]
    except KeyError:
        raise ValueError(
            f"unknown churn policy {config.policy!r}; "
            f"known: {', '.join(sorted(CHURN_POLICIES))}"
        ) from None
    policy = factory(config)
    policy.name = config.policy
    return policy
