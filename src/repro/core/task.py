"""Task model: Liu & Layland tasks, subtasks and task sets.

The paper (Section II) uses the classic L&L sporadic/periodic model: a task
``tau_i = <C_i, T_i>`` has worst-case execution time ``C_i`` and minimum
inter-release separation (period) ``T_i``; the relative deadline equals the
period.  Priorities follow RMS: shorter period = higher priority; ties are
broken by task index so the order is total.

Task splitting introduces *subtasks* ``tau_i^k = <C_i^k, T_i, Delta_i^k>``
where ``Delta_i^k`` is the *synthetic deadline* (Eq. 1 of the paper): the
original deadline shortened by the response times of the preceding body
subtasks.  Body subtasks have the highest priority on their host processor
(Lemma 2), so their response times equal their execution times, and a tail
subtask's synthetic deadline is ``T_i - sum of body execution times``
(Lemma 3).

The classes here are immutable value objects; partitioning algorithms build
new subtasks rather than mutating tasks in place.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro._util.floats import EPS, is_close, is_integer_multiple
from repro._util.invariants import check_taskset, invariants_enabled
from repro._util.validation import check_positive, check_positive_finite

_INF = math.inf


class SubtaskKind(enum.Enum):
    """Role of a subtask within its (possibly split) parent task."""

    #: The task was never split; the subtask is the whole task.
    WHOLE = "whole"
    #: A non-final piece of a split task (executes first, highest priority
    #: on its host processor by Lemma 2).
    BODY = "body"
    #: The final piece of a split task.
    TAIL = "tail"


@dataclass(frozen=True)
class Task:
    """An L&L task ``<C, T>`` with implicit deadline ``D = T``.

    Parameters
    ----------
    cost:
        Worst-case execution time ``C`` (any positive finite real).
    period:
        Minimum inter-release separation ``T`` (positive, finite); also the
        relative deadline.
    tid:
        Stable identifier used for priority tie-breaking and for matching
        subtasks back to their parent.  Task sets assign consecutive ids in
        RM priority order.
    name:
        Optional human-readable label (used in traces and examples).
    """

    cost: float
    period: float
    tid: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        cost = self.cost
        period = self.period
        # One chained test on the valid path (a task is built per
        # generated task); the helpers only word the error.
        if not (0.0 < cost < _INF and 0.0 < period < _INF):
            check_positive_finite("cost", cost)
            check_positive_finite("period", period)
        if cost > period * (1.0 + EPS):
            raise ValueError(
                f"task utilization exceeds 1: C={cost} > T={period}"
            )

    @property
    def utilization(self) -> float:
        """``U = C / T``."""
        return self.cost / self.period

    # Getters in C: admission probes read both on every whole-task probe.
    deadline = property(
        attrgetter("period"),
        doc="Relative deadline; equals the period in the L&L model.",
    )
    priority = property(
        attrgetter("tid"),
        doc="Priority key (the tid), so a task is its own admission candidate.",
    )

    def is_light(self, threshold: float) -> bool:
        """Whether ``U <= threshold`` (Definition 1 uses ``Theta/(1+Theta)``)."""
        return self.utilization <= threshold + EPS

    def scaled(self, cost_scale: float = 1.0, period_scale: float = 1.0) -> "Task":
        """Return a copy with scaled parameters (used by breakdown search)."""
        return Task(
            cost=self.cost * cost_scale,
            period=self.period * period_scale,
            tid=self.tid,
            name=self.name,
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialize to a plain dict (JSON-friendly)."""
        return {
            "cost": self.cost,
            "period": self.period,
            "tid": self.tid,
            "name": self.name,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Task":
        """Inverse of :meth:`to_dict`."""
        return Task(
            cost=float(data["cost"]),
            period=float(data["period"]),
            tid=int(data.get("tid", 0)),
            name=str(data.get("name", "")),
        )


@dataclass(frozen=True)
class Subtask:
    """A piece ``tau_i^k = <C^k, T, Delta^k>`` of a (possibly split) task.

    ``priority`` is inherited from the parent task: at run time every
    subtask is scheduled with the parent's original RMS priority
    (Section IV-A, "Scheduling at Run Time").  Smaller value = higher
    priority.
    """

    cost: float
    period: float
    deadline: float
    parent: Task
    index: int = 1
    kind: SubtaskKind = SubtaskKind.WHOLE

    def __post_init__(self) -> None:
        if not 0.0 <= self.cost < _INF:
            raise ValueError(
                f"cost must be finite and non-negative, got {self.cost!r}"
            )
        check_positive_finite("period", self.period)
        check_positive_finite("deadline", self.deadline)
        if self.deadline > self.period * (1.0 + EPS):
            raise ValueError("synthetic deadline cannot exceed the period")
        if self.index < 1:
            raise ValueError("subtask index starts at 1")

    @property
    def priority(self) -> int:
        """Priority key (parent task id; smaller = higher priority)."""
        return self.parent.tid

    @property
    def utilization(self) -> float:
        """``U^k = C^k / T``."""
        return self.cost / self.period

    def label(self) -> str:
        """Human-readable identifier, e.g. ``tau3^2(body)``."""
        base = self.parent.name or f"tau{self.parent.tid}"
        if self.kind is SubtaskKind.WHOLE:
            return base
        return f"{base}^{self.index}({self.kind.value})"

    @staticmethod
    def whole(task: Task) -> "Subtask":
        """The trivial subtask covering an unsplit task (``Delta = T``)."""
        return Subtask(
            cost=task.cost,
            period=task.period,
            deadline=task.period,
            parent=task,
            index=1,
            kind=SubtaskKind.WHOLE,
        )


class SubtaskRow(NamedTuple):
    """A :class:`Subtask` by value (unvalidated), with its priority key:
    how a :class:`~repro.core.partition.ProcessorState` stores a piece."""

    cost: float
    period: float
    deadline: float
    priority: int
    parent: Task
    index: int
    kind: SubtaskKind


class TaskSet:
    """An ordered collection of :class:`Task` in RM priority order.

    The constructor sorts tasks by ``(period, original position)`` and
    re-assigns ``tid`` 0..N-1 so that ``tid`` *is* the RMS priority
    (0 = highest).  This mirrors the paper's convention that task indices
    represent priorities.
    """

    def __init__(self, tasks: Iterable[Task]) -> None:
        ordered = sorted(enumerate(tasks), key=lambda p: (p[1].period, p[0]))
        self._tasks: Tuple[Task, ...] = tuple(
            Task(cost=t.cost, period=t.period, tid=i, name=t.name or f"tau{i}")
            for i, (_, t) in enumerate(ordered)
        )
        if invariants_enabled():
            check_taskset(self._tasks)

    @classmethod
    def from_columns(
        cls, costs: Sequence[float], periods: Sequence[float]
    ) -> "TaskSet":
        """The set of tasks ``<costs[j], periods[j]>``, each built once.

        Equal to ``TaskSet(Task(c, t) for c, t in zip(costs, periods))``
        (stable sort by period, tids and ``tau{i}`` names in that order)
        without building every task twice: the generators' constructor.
        """
        if len(costs) != len(periods):
            raise ValueError("costs and periods differ in length")
        order = sorted(range(len(periods)), key=periods.__getitem__)
        taskset = cls.__new__(cls)
        taskset._tasks = tuple(
            [Task(costs[j], periods[j], i, f"tau{i}") for i, j in enumerate(order)]
        )
        if invariants_enabled():
            check_taskset(taskset._tasks)
        return taskset

    @classmethod
    def from_ordered(cls, tasks: Sequence[Task]) -> "TaskSet":
        """The set of *tasks*, already in RM priority order, kept as given.

        Unlike the other constructors it keeps every task object (cost,
        period, tid and name): for tasks whose tids already encode an RM
        order, such as the churn cluster's.  The tids must be strictly
        increasing and the periods non-decreasing; ``ValueError``
        otherwise.  The tids need not be ``0..N-1``: partitioners read
        them only as an order and as identities.
        """
        for a, b in zip(tasks, tasks[1:]):
            if not (a.tid < b.tid and a.period <= b.period):
                raise ValueError(
                    f"tasks not in RM order: tid {a.tid} (T={a.period}) "
                    f"before tid {b.tid} (T={b.period})"
                )
        taskset = cls.__new__(cls)
        taskset._tasks = tuple(tasks)
        if invariants_enabled():
            check_taskset(taskset._tasks)
        return taskset

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, i: int) -> Task:
        return self._tasks[i]

    def __repr__(self) -> str:
        return f"TaskSet(n={len(self)}, U={self.total_utilization:.4f})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    # -- aggregate quantities ----------------------------------------------

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """The tasks in RM priority order (index 0 = highest priority)."""
        return self._tasks

    @property
    def total_utilization(self) -> float:
        """``U(tau) = sum_i C_i / T_i``."""
        return float(sum(t.utilization for t in self._tasks))

    def normalized_utilization(self, processors: int) -> float:
        """``U_M(tau) = U(tau) / M`` (Section II, Eq. for U_M)."""
        check_positive("processors", processors)
        return self.total_utilization / processors

    @property
    def max_utilization(self) -> float:
        """Largest individual task utilization."""
        return max((t.utilization for t in self._tasks), default=0.0)

    # -- structure predicates ------------------------------------------------

    def is_light(self, threshold: float) -> bool:
        """Whether every task utilization is at most *threshold*."""
        return all(t.is_light(threshold) for t in self._tasks)

    def is_harmonic(self, *, rel: float = 1e-6) -> bool:
        """Whether periods form a single harmonic chain (pairwise divide).

        With periods sorted, it suffices that each period divides the next.
        """
        ps = sorted(t.period for t in self._tasks)
        return all(
            is_integer_multiple(ps[i], ps[i + 1], rel=rel)
            for i in range(len(ps) - 1)
        )

    def hyperperiod(self) -> Optional[float]:
        """LCM of periods if all periods are (close to) integers, else None.

        The discrete-event simulator uses one hyperperiod as the default
        horizon when available.
        """
        ints: List[int] = []
        for t in self._tasks:
            nearest = round(t.period)
            if nearest <= 0 or not is_close(t.period, float(nearest), rel=1e-9):
                return None
            ints.append(int(nearest))
        lcm = 1
        for v in ints:
            lcm = lcm * v // math.gcd(lcm, v)
        return float(lcm)

    # -- transformations -----------------------------------------------------

    def scaled_costs(self, factor: float) -> "TaskSet":
        """Return a new set with all ``C_i`` multiplied by *factor*.

        Raises ``ValueError`` if the scaling pushes any utilization above 1.
        Used by the breakdown-utilization search.
        """
        check_positive("factor", factor)
        return TaskSet(t.scaled(cost_scale=factor) for t in self._tasks)

    def without(self, tids: Iterable[int]) -> "TaskSet":
        """Return a new set excluding tasks whose ``tid`` is in *tids*."""
        drop = set(tids)
        return TaskSet(t for t in self._tasks if t.tid not in drop)

    def subset(self, tids: Iterable[int]) -> "TaskSet":
        """Return a new set with only the tasks whose ``tid`` is in *tids*."""
        keep = set(tids)
        return TaskSet(t for t in self._tasks if t.tid in keep)

    # -- serialization ---------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        """Serialize to a list of plain dicts."""
        return [t.to_dict() for t in self._tasks]

    @staticmethod
    def from_dicts(rows: Sequence[Dict[str, object]]) -> "TaskSet":
        """Inverse of :meth:`to_dicts`."""
        return TaskSet(Task.from_dict(r) for r in rows)

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[float, float]]) -> "TaskSet":
        """Build from ``(cost, period)`` pairs — the paper's ``<C, T>``."""
        pairs = list(pairs)
        return TaskSet.from_columns(
            [c for c, _ in pairs], [t for _, t in pairs]
        )


@dataclass
class SplitTaskView:
    """Groups the subtasks a split task was divided into.

    Convenience view used by partition validation and by the simulator to
    wire up the precedence chain ``tau_i^1 -> tau_i^2 -> ... -> tau_i^t``.
    """

    task: Task
    pieces: List[Subtask] = field(default_factory=list)

    def sorted_pieces(self) -> List[Subtask]:
        """Pieces ordered by their subtask index (execution order)."""
        return sorted(self.pieces, key=lambda s: s.index)

    @property
    def total_cost(self) -> float:
        """Sum of the pieces' execution times (must equal ``C_i``)."""
        return sum(p.cost for p in self.pieces)

    @property
    def body_cost(self) -> float:
        """Sum of body piece execution times (``C_i^body`` in Lemma 3)."""
        return sum(p.cost for p in self.pieces if p.kind is SubtaskKind.BODY)

    def is_consistent(self) -> bool:
        """Check piece indices, kinds and the cost sum against the parent.

        * indices are 1..k contiguous,
        * exactly the last piece is a TAIL (or a single WHOLE piece),
        * costs sum to ``C_i``,
        * the tail deadline respects Eq. 1: ``Delta^t = T - sum R^body``
          with ``R^body >= C^body``, so ``Delta^t <= T - C^body`` (equality
          is Lemma 3's highest-priority-body case).  The exact equality
          against computed responses is checked by
          :meth:`repro.core.partition.PartitionResult.validate`, which
          knows the processor contents.
        """
        pieces = self.sorted_pieces()
        if not pieces:
            return False
        if len(pieces) == 1:
            p = pieces[0]
            return (
                p.kind is SubtaskKind.WHOLE
                and is_close(p.cost, self.task.cost)
                and is_close(p.deadline, self.task.period)
            )
        if [p.index for p in pieces] != list(range(1, len(pieces) + 1)):
            return False
        if any(p.kind is not SubtaskKind.BODY for p in pieces[:-1]):
            return False
        if pieces[-1].kind is not SubtaskKind.TAIL:
            return False
        if not is_close(self.total_cost, self.task.cost):
            return False
        lemma3_deadline = self.task.period - self.body_cost
        tail_deadline = pieces[-1].deadline
        return tail_deadline <= lemma3_deadline + EPS and tail_deadline > 0
