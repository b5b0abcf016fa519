"""Partitioned-scheduling framework: processor state, split bookkeeping,
partition results and validation.

A partitioned algorithm with task splitting (Section II) produces, for each
processor, a list of subtasks; a split task contributes one *body* subtask
to each of several processors and a single *tail* subtask to the last one.
This module owns the bookkeeping that all concrete algorithms
(:mod:`repro.core.rmts_light`, :mod:`repro.core.rmts`, the SPA baselines)
share:

* :class:`ProcessorState` — the pieces assigned to one processor, its
  assigned utilization and full/role flags;
* :class:`PendingPiece` — the not-yet-assigned remainder of a task as it
  travels across processors during splitting, tracking the accumulated body
  cost so synthetic deadlines follow Lemma 3
  (``Delta^t = T - C^body``);
* :class:`PartitionResult` — the outcome, with a :meth:`~PartitionResult.validate`
  method that re-checks every structural invariant from the paper
  independently of the algorithm that produced the partition.

Partitioning builds no :class:`~repro.core.task.Subtask`: it probes tasks
and pending pieces as they are and commits by value into processor rows.
Subtasks are built (and validated) when :attr:`ProcessorState.subtasks` is
read: validation, serialization, simulation, service bodies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union, cast

from repro._util.floats import EPS, is_close
from repro._util.invariants import check_partition, invariants_enabled
from repro.core.rta import RTAContext, is_schedulable, response_times
from repro.core.task import SplitTaskView, Subtask, SubtaskKind, SubtaskRow, Task, TaskSet
from repro.perf.telemetry import COUNTERS

__all__ = [
    "ProcessorRole",
    "ProcessorSnapshot",
    "ProcessorState",
    "PendingPiece",
    "PartitionResult",
    "least_utilized",
]


class ProcessorRole(enum.Enum):
    """Role a processor plays in the RM-TS partitioning phases."""

    #: Ordinary processor (phase 2 of RM-TS; all processors in RM-TS/light).
    NORMAL = "normal"
    #: Hosts one pre-assigned heavy task (phase 1 of RM-TS).
    PRE_ASSIGNED = "pre-assigned"
    #: Dedicated to a single task whose utilization exceeds Lambda(tau)
    #: (footnote 5 of the paper).
    DEDICATED = "dedicated"


#: Definite utilization reject of :meth:`ProcessorState.schedulable_with`.
#: It sits above the definite reject of
#: :meth:`RTAContext.admits <repro.core.rta.RTAContext.admits>`
#: (``1 + EPS + 1e-10`` on its priority-order sum) by far more than the
#: running sum's summation-order error, so the two always agree.
_UTIL_REJECT = 1.0 + EPS + 2e-10

_UTIL = attrgetter("_util")
#: ``(len(rows), _util, context copy)`` of :meth:`ProcessorState.snapshot`.
ProcessorSnapshot = Tuple[int, float, Optional[RTAContext]]
#: Builds a ``SubtaskRow`` from a tuple in C, skipping the namedtuple's
#: Python-level ``__new__``: that call would cost :meth:`ProcessorState.add`,
#: run once per commit, more than the rest of its body.
_new_row = cast(Callable[[type, Tuple[object, ...]], SubtaskRow], tuple.__new__)


class ProcessorState:
    """Mutable assignment state of one processor during partitioning.

    The pieces live in one store, :attr:`rows` (append order); the
    processor's :class:`~repro.core.rta.RTAContext` is built from them on
    first demand and from then on updated in place by :meth:`add`.
    Mutate the contents only through :meth:`add`, :meth:`remove_parent`,
    :meth:`restore` or the :attr:`subtasks` setter: the context is not
    re-checked against the rows, so an edit of :attr:`rows` behind its
    back leaves admission answering for the old contents.  :meth:`PartitionResult.validate`
    re-runs exact RTA from scratch and so still reports such a processor.

    Equality and ``repr`` cover ``index``, ``full``, ``role``,
    ``pre_assigned_tid`` and ``rows``; the context and the utilization
    accumulator are caches.
    """

    __slots__ = ("index", "full", "role", "pre_assigned_tid", "rows", "_ctx", "_util")

    def __init__(
        self,
        index: int,
        full: bool = False,
        role: ProcessorRole = ProcessorRole.NORMAL,
        pre_assigned_tid: Optional[int] = None,
    ) -> None:
        self.index = index
        self.full = full
        self.role = role
        #: tid of the pre-assigned task, if any (RM-TS phase 1).
        self.pre_assigned_tid = pre_assigned_tid
        self.rows: List[SubtaskRow] = []
        #: Lazily built analysis cache; never compared or serialized.
        self._ctx: Optional[RTAContext] = None
        #: Running utilization sum, accumulated left to right in row order
        #: (``+=``, never the builtin ``sum``, which compensates since
        #: Python 3.12).
        self._util = 0.0

    def _key(self) -> Tuple[int, bool, ProcessorRole, Optional[int], List[SubtaskRow]]:
        return (self.index, self.full, self.role, self.pre_assigned_tid, self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessorState):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"ProcessorState(index={self.index!r}, full={self.full!r}, "
            f"role={self.role!r}, pre_assigned_tid={self.pre_assigned_tid!r}, "
            f"rows={self.rows!r})"
        )

    # A C getter: threshold admission reads it on every probe.
    utilization = property(
        _UTIL, doc="``U(P_q)`` — sum of assigned subtask utilizations."
    )

    @property
    def subtasks(self) -> List[Subtask]:
        """The pieces as (validated) subtasks: a new list per read."""
        return [Subtask(c, t, d, p, i, k) for c, t, d, _, p, i, k in self.rows]

    @subtasks.setter
    def subtasks(self, subtasks: Sequence[Subtask]) -> None:
        self._reset([
            SubtaskRow(s.cost, s.period, s.deadline, s.priority, s.parent, s.index, s.kind)
            for s in subtasks
        ])

    def add(
        self,
        parent: Task,
        cost: Optional[float] = None,
        deadline: Optional[float] = None,
        index: int = 1,
        kind: SubtaskKind = SubtaskKind.WHOLE,
    ) -> None:
        """Assign piece *index* ``<cost, T, deadline>`` of *parent*
        (default: the whole task) to this processor.

        An existing analysis context is updated in place (prefix responses
        kept, suffix settled by the probe memo or deferred) rather than
        discarded, so the admission cache survives the mutation at O(n)
        cost.
        """
        cost = parent.cost if cost is None else cost
        deadline = parent.period if deadline is None else deadline
        if cost <= 0:
            raise ValueError("cannot assign a zero-cost subtask")
        period = parent.period
        priority = parent.tid
        ctx = self._ctx
        if ctx is not None:
            ctx.insert(cost, period, deadline, priority)
        self.rows.append(
            _new_row(SubtaskRow, (cost, period, deadline, priority, parent, index, kind))
        )
        self._util += cost / period

    def _reset(self, rows: List[SubtaskRow]) -> None:
        # Re-summed left to right in row order, the accumulation of
        # :meth:`add`; the builtin ``sum`` compensates since Python 3.12.
        util = 0.0
        for row in rows:
            util += row.cost / row.period
        self.rows = rows
        self._ctx = None
        self._util = util

    def snapshot(self) -> ProcessorSnapshot:
        """What :meth:`restore` needs to undo the :meth:`add` calls that
        follow: the row count, the utilization accumulator and a copy of
        the analysis context (``None`` if none is built)."""
        ctx = self._ctx
        copy = None if ctx is None else ctx.copy()
        return (len(self.rows), self._util, copy)

    def restore(self, snapshot: ProcessorSnapshot) -> None:
        """Roll back every :meth:`add` since *snapshot* was taken.

        The rows are truncated, the accumulator and the context are put
        back by reference, so no analysis runs again: the processor is
        exactly as it was, bit for bit.  Only :meth:`add` may run between
        the two calls, and a snapshot is restored at most once (its
        context becomes the live one).  This is the rollback path of a
        failed churn admission; departures use :meth:`remove_parent`.
        """
        count, util, ctx = snapshot
        del self.rows[count:]
        self._util = util
        self._ctx = ctx

    def remove_parent(self, tid: int) -> int:
        """Withdraw every piece of task *tid* from this processor.

        This is the departure path of the churn simulator
        (:mod:`repro.cluster`).  The cached analysis context is dropped
        and the running utilization recomputed over the survivors in row
        order, so subsequent admission probes are bit-identical to a
        processor that admitted only the survivors, in the same order,
        and never hosted *tid* (see ``tests/core/test_removal.py``).

        Returns the number of subtask pieces removed.
        """
        kept = [row for row in self.rows if row.priority != tid]
        removed = len(self.rows) - len(kept)
        if removed == 0:
            return 0
        if self.pre_assigned_tid == tid:
            self.pre_assigned_tid = None
            if self.role is ProcessorRole.PRE_ASSIGNED:
                self.role = ProcessorRole.NORMAL
        if self.role is ProcessorRole.DEDICATED and not kept:
            self.role = ProcessorRole.NORMAL
        # "full" marks a processor filled by a body subtask during
        # splitting; once no body remains the capacity is reclaimable.
        # Only a set flag needs the scan (fit policies never split).
        if self.full and not any(row.kind is SubtaskKind.BODY for row in kept):
            self.full = False
        self._reset(kept)
        return removed

    def rta_context(self) -> RTAContext:
        """The processor's analysis context, built on first demand."""
        COUNTERS.ctx_requests += 1
        ctx = self._ctx
        if ctx is None:
            COUNTERS.ctx_builds += 1
            ctx = self._ctx = RTAContext.from_rows(self.rows)
        return ctx

    def schedulable_with(self, candidate: Union[Task, PendingPiece]) -> bool:
        """Exact-RTA admission: does everything still meet its deadline if
        *candidate* joins this processor? (Assign routine, Algorithm 2).

        *candidate* is a whole :class:`~repro.core.task.Task` or a
        :class:`PendingPiece` (its remainder assigned whole).  Candidates
        that overflow the running utilization are rejected before the
        context is fetched; the rest are answered by the context.  Every
        call is one admission probe, decision-identical to
        ``is_schedulable(self.subtasks + [candidate as a subtask])``.
        """
        cost = candidate.cost
        period = candidate.period
        if self._util + cost / period > _UTIL_REJECT:
            COUNTERS.admission_probes += 1
            return False
        ctx = self._ctx
        if ctx is None:
            ctx = self.rta_context()
        return ctx.admits(cost, period, candidate.deadline, candidate.priority)

    def is_schedulable(self) -> bool:
        """Exact-RTA check of the current contents (via the context)."""
        return self.rta_context().schedulable

    def body_subtasks(self) -> List[Subtask]:
        """The body subtasks hosted here (at most one for the paper's
        algorithms — a processor becomes full right after receiving one)."""
        return [s for s in self.subtasks if s.kind is SubtaskKind.BODY]

    def highest_priority_subtask(self) -> Optional[Subtask]:
        """The hosted subtask with the smallest priority value."""
        if not self.rows:
            return None
        return min(self.subtasks, key=lambda s: s.priority)


class PendingPiece:
    """The unassigned remainder of a task while splitting is in progress.

    ``PendingPiece(task)`` starts as the whole task (``index=1``,
    ``body_cost=0``).  Each call to :meth:`split_off` peels a body piece
    off the front; :meth:`commit` assigns the remainder as a tail (or
    whole) piece once a processor accepts it entirely.  Both commit by
    value (:meth:`ProcessorState.add`).

    The synthetic deadline follows the paper's Eq. 1 exactly:
    ``Delta^k = T - sum of preceding body *response times*``.  When a body
    subtask is highest-priority on its host (Lemma 2 — always the case in
    RM-TS/light and RM-TS phase 2), its response equals its cost and Eq. 1
    reduces to Lemma 3.  In RM-TS **phase 3** a pre-assigned task with
    higher priority may share the body's processor; the caller then passes
    the body's actual RTA response to :meth:`split_off`, keeping the
    successor's deadline sound (``body_response`` tracks the sum).

    ``period``, ``priority`` and ``deadline`` are plain attributes, read
    by every admission probe: :meth:`split_off` is the only writer of the
    deadline and keeps it equal to ``period - body_response``.
    """

    __slots__ = (
        "task",
        "cost",
        "period",
        "priority",
        "deadline",
        "index",
        "body_cost",
        "body_response",
    )

    def __init__(self, task: Task) -> None:
        self.task = task
        #: Cost still to be assigned.
        self.cost: float = task.cost
        #: Period of the task (every piece shares it).
        self.period: float = task.period
        #: Priority key of the task (its tid; smaller = higher).
        self.priority: int = task.tid
        #: Synthetic deadline of the remaining piece (Eq. 1):
        #: ``T - sum of preceding body response times``.
        self.deadline: float = task.period
        self.index = 1
        self.body_cost = 0.0
        self.body_response = 0.0

    def __repr__(self) -> str:
        return (
            f"PendingPiece(tid={self.priority}, cost={self.cost!r}, "
            f"index={self.index}, deadline={self.deadline!r})"
        )

    @property
    def utilization(self) -> float:
        """Utilization of the remaining piece."""
        return self.cost / self.period

    @property
    def kind(self) -> SubtaskKind:
        """The remainder's kind if assigned entirely: WHOLE or TAIL."""
        return SubtaskKind.WHOLE if self.index == 1 else SubtaskKind.TAIL

    def commit(self, proc: ProcessorState) -> float:
        """Assign the entire remainder to *proc* and consume the piece;
        returns the cost placed."""
        cost = self.cost
        index = self.index
        proc.add(
            self.task,
            cost,
            self.deadline,
            index,
            SubtaskKind.WHOLE if index == 1 else SubtaskKind.TAIL,
        )
        self.cost = 0.0
        return cost

    def split_off(
        self, proc: ProcessorState, first_cost: float,
        response: Optional[float] = None,
    ) -> float:
        """Peel a body piece of cost *first_cost* off the front and assign
        it to *proc*.

        Returns the body's cost, or 0.0 when *first_cost* is ~0 (nothing
        is assigned and the piece is unchanged).  The remainder keeps the
        leftover cost with an incremented index and an accordingly
        shortened synthetic deadline.

        *response* is the body's worst-case response time on its host
        processor (Eq. 1); it defaults to *first_cost*, which is exact
        when the body is highest-priority there (Lemma 2).  Callers whose
        body shares a processor with higher-priority work (RM-TS phase 3)
        must pass the actual RTA response.
        """
        if first_cost < -EPS or first_cost > self.cost + EPS:
            raise ValueError(
                f"split cost {first_cost} outside [0, {self.cost}]"
            )
        first_cost = min(max(first_cost, 0.0), self.cost)
        if first_cost <= EPS:
            return 0.0
        if first_cost >= self.cost - EPS:
            raise ValueError(
                "split must leave a non-empty remainder; "
                "use commit() for an entire assignment"
            )
        if response is None:
            response = first_cost
        if response < first_cost - EPS:
            raise ValueError("a body's response cannot undercut its cost")
        proc.add(self.task, first_cost, self.deadline, self.index, SubtaskKind.BODY)
        self.cost -= first_cost
        self.index += 1
        self.body_cost += first_cost
        self.body_response += response
        self.deadline = self.period - self.body_response
        return first_cost


def least_utilized(procs: Sequence[ProcessorState]) -> ProcessorState:
    """The worst-fit choice: the first processor of minimal utilization.

    With *procs* in index order this is the ``(utilization, index)``
    minimum, without building a key tuple per processor.
    """
    return min(procs, key=_UTIL)


@dataclass
class PartitionResult:
    """Outcome of a partitioning algorithm.

    ``success`` means every task was (fully) assigned; by Lemma 4 a
    successful partition is schedulable at run time, which
    :mod:`repro.sim` verifies empirically.
    """

    algorithm: str
    taskset: TaskSet
    processors: List[ProcessorState]
    success: bool
    #: tids of tasks not (fully) assigned when partitioning failed.
    unassigned_tids: List[int] = field(default_factory=list)
    #: free-form metadata recorded by the algorithm (e.g. pre-assign info).
    info: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Debug-mode sanitizer (REPRO_DEBUG_INVARIANTS=1): every successful
        # partition must pass its own structural validation at birth.
        if invariants_enabled():
            check_partition(self)

    # -- basic queries -------------------------------------------------------

    @property
    def num_processors(self) -> int:
        return len(self.processors)

    @property
    def total_assigned_utilization(self) -> float:
        """Sum of assigned utilizations across all processors."""
        return float(sum(p.utilization for p in self.processors))

    def processors_hosting(self, tid: int) -> List[int]:
        """Indices of processors hosting a piece of task *tid*, in subtask
        index order (the migration path of a split task)."""
        hits: List[Tuple[int, int]] = []
        for proc in self.processors:
            for row in proc.rows:
                if row.priority == tid:
                    hits.append((row.index, proc.index))
        return [p for _, p in sorted(hits)]

    def host_map(self) -> Dict[int, List[int]]:
        """:meth:`processors_hosting` of every hosted tid, from one pass
        over the rows."""
        hits: Dict[int, List[Tuple[int, int]]] = {}
        for proc in self.processors:
            q = proc.index
            for row in proc.rows:
                hits.setdefault(row.priority, []).append((row.index, q))
        return {
            tid: [p for _, p in sorted(pieces)] for tid, pieces in hits.items()
        }

    def split_views(self) -> Dict[int, SplitTaskView]:
        """Per-task grouping of assigned pieces."""
        views: Dict[int, SplitTaskView] = {}
        for proc in self.processors:
            for sub in proc.subtasks:
                view = views.setdefault(sub.parent.tid, SplitTaskView(task=sub.parent))
                view.pieces.append(sub)
        return views

    def split_tids(self) -> List[int]:
        """tids of tasks that were actually split (>= 2 pieces)."""
        return [tid for tid, v in self.split_views().items() if len(v.pieces) > 1]

    # -- departure (churn) -----------------------------------------------------

    def removed_tids(self) -> List[int]:
        """tids withdrawn via :meth:`remove_task`."""
        value = self.info.get("removed_tids", [])
        if not isinstance(value, list):
            return []
        return list(cast(List[int], value))

    def remove_task(self, tid: int) -> int:
        """Withdraw task *tid* from every processor (the departure path).

        The tid is recorded under ``info["removed_tids"]`` instead of
        rebuilding ``taskset`` — :class:`~repro.core.task.TaskSet`
        re-assigns tids on construction, which would sever the
        subtask→parent correspondence of the surviving assignment.
        :meth:`validate` skips removed tids in its coverage check; every
        other invariant keeps holding for the survivors.  Returns the
        number of subtask pieces removed across all processors.
        """
        removed = 0
        for proc in self.processors:
            removed += proc.remove_parent(tid)
        if tid in self.unassigned_tids:
            self.unassigned_tids.remove(tid)
        record = cast(List[int], self.info.setdefault("removed_tids", []))
        if tid not in record:
            record.append(tid)
        return removed

    # -- validation ------------------------------------------------------------

    @property
    def scheduler(self) -> str:
        """Per-processor dispatching rule: ``"fixed"`` (RMS, the paper's
        algorithms) or ``"edf"`` (the EDF-WS baseline).  Normalized to
        lower case — the debug sanitizer caught a partition builder
        labelling itself ``"EDF"`` and silently falling into every
        fixed-priority code path."""
        return str(self.info.get("scheduler", "fixed")).lower()

    def _edf_split_consistent(self, view: "SplitTaskView") -> bool:
        """EDF window-split consistency: contiguous indices, costs sum to
        ``C_i``, each piece fits its window, windows sum to <= ``T``."""
        pieces = view.sorted_pieces()
        if not pieces:
            return False
        if len(pieces) == 1:
            p = pieces[0]
            return p.kind is SubtaskKind.WHOLE and is_close(p.cost, view.task.cost)
        if [p.index for p in pieces] != list(range(1, len(pieces) + 1)):
            return False
        if not is_close(view.total_cost, view.task.cost):
            return False
        if any(p.cost > p.deadline + EPS for p in pieces):
            return False
        return sum(p.deadline for p in pieces) <= view.task.period + EPS

    def validate(self, structural_only: bool = False) -> List[str]:
        """Re-check every structural invariant; return a list of violations.

        ``structural_only=True`` limits the check to *universal*
        semi-partitioned structure — coverage, contiguous split chains,
        no duplicate pieces, distinct hosts per chain — skipping the
        rules that only the paper's own algorithms guarantee: Lemma-2
        body placement, Eq.-1 deadlines and per-processor RTA/DBF.
        (Simulation fixtures build complete-but-overloaded partitions to
        observe misses, and ablation variants deliberately break the
        paper's assignment order; both are still structurally sound.)

        An empty list means the partition is well-formed.  For the paper's
        fixed-priority partitions:

        1. on success, every task is fully covered and costs sum to ``C_i``;
        2. subtask indices/kinds/deadlines are consistent (Lemma 3);
        3. each processor hosts at most one piece per task;
        4. at most one body subtask per processor, and it has the highest
           priority there among non-pre-assigned content (Lemma 2 / 14);
        5. each processor passes exact RTA, re-run from scratch on its
           subtask list (independent of the cached analysis context);
        6. consecutive pieces of a split task live on distinct processors.

        For EDF partitions (``info["scheduler"] == "edf"``) the
        fixed-priority-specific rules (2, 4) are replaced by window-budget
        consistency, and rule 5 uses the exact DBF test.
        """
        errors: List[str] = []
        views = self.split_views()
        edf = self.scheduler == "edf"

        if self.success:
            departed = set(self.removed_tids())
            missing = [
                t.tid
                for t in self.taskset
                if t.tid not in views and t.tid not in departed
            ]
            if missing:
                errors.append(f"success claimed but tasks {missing} unassigned")
            for tid, view in views.items():
                consistent = (
                    self._edf_split_consistent(view)
                    if edf
                    else view.is_consistent()
                )
                if not consistent:
                    errors.append(f"task {tid}: inconsistent split pieces")

        for proc in self.processors:
            subtasks = proc.subtasks
            seen: Dict[int, int] = {}
            for sub in subtasks:
                seen[sub.parent.tid] = seen.get(sub.parent.tid, 0) + 1
            dupes = [tid for tid, cnt in seen.items() if cnt > 1]
            if dupes:
                errors.append(
                    f"processor {proc.index}: multiple pieces of tasks {dupes}"
                )

            if not edf and not structural_only:
                bodies = [s for s in subtasks if s.kind is SubtaskKind.BODY]
                if len(bodies) > 1:
                    errors.append(
                        f"processor {proc.index}: {len(bodies)} body subtasks"
                    )
                if bodies:
                    body = bodies[0]
                    others = [
                        s
                        for s in subtasks
                        if s is not body
                        and s.parent.tid != proc.pre_assigned_tid
                    ]
                    if any(s.priority < body.priority for s in others):
                        errors.append(
                            f"processor {proc.index}: body subtask "
                            f"{body.label()} is not highest-priority"
                        )

            if self.success and not structural_only:
                if edf:
                    from repro.core.baselines.edf import edf_schedulable

                    if not edf_schedulable(subtasks):
                        errors.append(
                            f"processor {proc.index}: fails exact DBF test"
                        )
                elif not is_schedulable(subtasks):
                    # From scratch, not the processor's context: the
                    # context trusts that ``rows`` changed only via
                    # ``add``, which is what this rule must not assume.
                    errors.append(f"processor {proc.index}: fails exact RTA")

        hosting = self.host_map()
        for tid in views:
            procs = hosting.get(tid, [])
            if len(set(procs)) != len(procs):
                errors.append(f"task {tid}: revisits a processor when split")

        if self.success and not edf and not structural_only:
            # Eq. 1 deadline assignment is analytical, not structural: it
            # re-derives body response times on the host processors.
            errors.extend(self._check_eq1_deadlines(views))

        return errors

    def _check_eq1_deadlines(
        self, views: Dict[int, "SplitTaskView"]
    ) -> List[str]:
        """Exact Eq. 1 check: every split piece's synthetic deadline must
        equal ``T - sum of preceding body response times``, with each body
        response computed against its host processor's actual contents.
        Reduces to Lemma 3 when bodies are highest-priority on their hosts.
        """
        errors: List[str] = []
        # Per-processor RTA once.
        responses: Dict[tuple, float] = {}
        for proc in self.processors:
            subtasks = proc.subtasks
            result = response_times(subtasks)
            ordered = sorted(subtasks, key=lambda s: s.priority)
            for sub, resp in zip(ordered, result.responses):
                responses[(sub.parent.tid, sub.index)] = float(resp)
        for tid, view in views.items():
            pieces = view.sorted_pieces()
            if len(pieces) < 2:
                continue
            consumed = 0.0
            for piece in pieces:
                expected = view.task.period - consumed
                if not is_close(piece.deadline, expected):
                    errors.append(
                        f"task {tid} piece {piece.index}: deadline "
                        f"{piece.deadline:.6f} != Eq.1 value {expected:.6f}"
                    )
                    break
                consumed += responses.get((tid, piece.index), piece.cost)
        return errors

    def summary(self) -> str:
        """One-line human-readable description."""
        status = "OK" if self.success else "FAILED"
        split = len(self.split_tids())
        return (
            f"{self.algorithm}: {status}, M={self.num_processors}, "
            f"N={len(self.taskset)}, split tasks={split}, "
            f"assigned U={self.total_assigned_utilization:.3f}"
        )

    def processor_report(self) -> str:
        """Multi-line report of per-processor contents (for examples/docs)."""
        lines = [self.summary()]
        for proc in self.processors:
            tags = [proc.role.value]
            if proc.full:
                tags.append("full")
            subs = ", ".join(
                f"{s.label()}[C={s.cost:.3f},T={s.period:.3f},D={s.deadline:.3f}]"
                for s in sorted(proc.subtasks, key=lambda s: s.priority)
            )
            lines.append(
                f"  P{proc.index} ({'/'.join(tags)}, U={proc.utilization:.3f}): {subs}"
            )
        if self.unassigned_tids:
            lines.append(f"  unassigned: {sorted(self.unassigned_tids)}")
        return "\n".join(lines)

    def response_time_report(self) -> Dict[int, object]:
        """Exact RTA results per processor (index -> RTAResult)."""
        return {p.index: response_times(p.subtasks) for p in self.processors}
