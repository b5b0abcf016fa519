"""Partitioned-scheduling framework: processor state, split bookkeeping,
partition results and validation.

A partitioned algorithm with task splitting (Section II) produces, for each
processor, a list of subtasks; a split task contributes one *body* subtask
to each of several processors and a single *tail* subtask to the last one.
This module owns the bookkeeping that all concrete algorithms
(:mod:`repro.core.rmts_light`, :mod:`repro.core.rmts`, the SPA baselines)
share:

* :class:`ProcessorState` — the subtasks assigned to one processor, its
  assigned utilization and full/role flags;
* :class:`PendingPiece` — the not-yet-assigned remainder of a task as it
  travels across processors during splitting, tracking the accumulated body
  cost so synthetic deadlines follow Lemma 3
  (``Delta^t = T - C^body``);
* :class:`PartitionResult` — the outcome, with a :meth:`~PartitionResult.validate`
  method that re-checks every structural invariant from the paper
  independently of the algorithm that produced the partition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, cast

from repro._util.floats import EPS, is_close
from repro._util.invariants import check_partition
from repro.core.rta import RTAContext, response_times
from repro.core.task import SplitTaskView, Subtask, SubtaskKind, Task, TaskSet
from repro.perf import config as perf_config
from repro.perf.telemetry import COUNTERS

__all__ = [
    "ProcessorRole",
    "ProcessorState",
    "PendingPiece",
    "PartitionResult",
    "build_split_views",
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


@dataclass
class ProcessorState:
    """Mutable assignment state of one processor during partitioning.

    Cache-invalidation contract: the subtask list must only be mutated
    through :meth:`add` (or followed by :meth:`invalidate_analysis`), which
    drops the cached :class:`~repro.core.rta.RTAContext` and running
    utilization.  Replacing elements of ``subtasks`` in place without
    invalidating is unsupported and would serve stale analysis results.
    """

    index: int
    subtasks: List[Subtask] = field(default_factory=list)
    full: bool = False
    role: ProcessorRole = ProcessorRole.NORMAL
    #: tid of the pre-assigned task, if any (RM-TS phase 1).
    pre_assigned_tid: Optional[int] = None
    #: Lazily built analysis cache; never compared or serialized.
    _ctx: Optional[RTAContext] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Running utilization sum, maintained append-order so it is
    #: float-identical to ``sum(s.utilization for s in subtasks)``.
    _util: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._util = float(sum(s.utilization for s in self.subtasks))

    @property
    def utilization(self) -> float:
        """``U(P_q)`` — sum of assigned subtask utilizations."""
        return self._util

    def add(self, subtask: Subtask) -> None:
        """Assign *subtask* to this processor.

        An existing analysis context is updated incrementally (prefix
        responses kept, suffix warm-started) rather than discarded, so the
        admission cache survives the mutation at O(n) cost.
        """
        if subtask.cost <= 0:
            raise ValueError("cannot assign a zero-cost subtask")
        ctx = self._ctx
        if ctx is not None and len(ctx) == len(self.subtasks):
            self._ctx = ctx.with_subtask(subtask)
        else:
            self._ctx = None
        self.subtasks.append(subtask)
        self._util += subtask.utilization

    def invalidate_analysis(self) -> None:
        """Drop cached analysis state after out-of-band mutation of
        ``subtasks`` (normal code should only mutate via :meth:`add`)."""
        self._ctx = None
        self._util = float(sum(s.utilization for s in self.subtasks))

    def remove_parent(self, tid: int) -> int:
        """Withdraw every piece of task *tid* from this processor.

        This is the departure path of the churn simulator
        (:mod:`repro.cluster`).  The cached analysis context is dropped
        and the running utilization recomputed over the survivors in list
        order — the same left-to-right float accumulation :meth:`add`
        performs — so subsequent admission probes are bit-identical to a
        processor that admitted only the survivors, in the same order,
        and never hosted *tid* (see ``tests/core/test_removal.py``).

        Returns the number of subtask pieces removed.
        """
        kept = [s for s in self.subtasks if s.parent.tid != tid]
        removed = len(self.subtasks) - len(kept)
        if removed == 0:
            return 0
        self.subtasks = kept
        if self.pre_assigned_tid == tid:
            self.pre_assigned_tid = None
            if self.role is ProcessorRole.PRE_ASSIGNED:
                self.role = ProcessorRole.NORMAL
        if self.role is ProcessorRole.DEDICATED and not kept:
            self.role = ProcessorRole.NORMAL
        # "full" marks a processor filled by a body subtask during
        # splitting; once no body remains the capacity is reclaimable.
        if not any(s.kind is SubtaskKind.BODY for s in kept):
            self.full = False
        self.invalidate_analysis()
        return removed

    def rta_context(self) -> RTAContext:
        """The cached analysis context, rebuilt only after mutation."""
        COUNTERS.ctx_requests += 1
        ctx = self._ctx
        # The length guard catches out-of-band appends defensively; in-place
        # element replacement cannot be detected and is unsupported.
        if ctx is None or len(ctx) != len(self.subtasks):
            COUNTERS.ctx_builds += 1
            ctx = RTAContext(self.subtasks)
            self._ctx = ctx
        return ctx

    def schedulable_with(self, candidate: Subtask) -> bool:
        """Exact-RTA admission: does everything still meet its deadline if
        *candidate* joins this processor? (Assign routine, Algorithm 2).

        Answered by the cached incremental context, decision-identical to
        ``is_schedulable(self.subtasks + [candidate])``.
        """
        ctx = self._ctx
        if ctx is None or len(ctx) != len(self.subtasks):
            ctx = self.rta_context()
        return ctx.admits(
            candidate.cost,
            candidate.period,
            candidate.deadline,
            candidate.priority,
        )

    def is_schedulable(self) -> bool:
        """Exact-RTA check of the current contents."""
        return self.rta_context().schedulable

    def body_subtasks(self) -> List[Subtask]:
        """The body subtasks hosted here (at most one for the paper's
        algorithms — a processor becomes full right after receiving one)."""
        return [s for s in self.subtasks if s.kind is SubtaskKind.BODY]

    def highest_priority_subtask(self) -> Optional[Subtask]:
        """The hosted subtask with the smallest priority value."""
        if not self.subtasks:
            return None
        return min(self.subtasks, key=lambda s: s.priority)


@dataclass
class PendingPiece:
    """The unassigned remainder of a task while splitting is in progress.

    Starts as the whole task (``index=1``, ``body_cost=0``).  Each call to
    :meth:`split_off` peels a body subtask off the front; :meth:`finalize`
    turns the remainder into a tail (or whole) subtask once a processor
    accepts it entirely.

    The synthetic deadline follows the paper's Eq. 1 exactly:
    ``Delta^k = T - sum of preceding body *response times*``.  When a body
    subtask is highest-priority on its host (Lemma 2 — always the case in
    RM-TS/light and RM-TS phase 2), its response equals its cost and Eq. 1
    reduces to Lemma 3.  In RM-TS **phase 3** a pre-assigned task with
    higher priority may share the body's processor; the caller then passes
    the body's actual RTA response to :meth:`split_off`, keeping the
    successor's deadline sound (``body_response`` tracks the sum).
    """

    task: Task
    cost: float
    index: int = 1
    body_cost: float = 0.0
    body_response: float = 0.0

    @staticmethod
    def of(task: Task) -> "PendingPiece":
        """The initial pending piece covering the entire task."""
        return PendingPiece(task=task, cost=task.cost)

    @property
    def utilization(self) -> float:
        """Utilization of the remaining piece."""
        return self.cost / self.task.period

    @property
    def deadline(self) -> float:
        """Synthetic deadline of the remaining piece (Eq. 1):
        ``T - sum of preceding body response times``."""
        return self.task.period - self.body_response

    def as_candidate(self) -> Subtask:
        """The remainder viewed as a subtask, for admission tests.

        Kind is what it *would be* if assigned entirely now: WHOLE when the
        task was never split, TAIL otherwise.
        """
        kind = SubtaskKind.WHOLE if self.index == 1 else SubtaskKind.TAIL
        return Subtask(
            cost=self.cost,
            period=self.task.period,
            deadline=self.deadline,
            parent=self.task,
            index=self.index,
            kind=kind,
        )

    def finalize(self, candidate: Optional[Subtask] = None) -> Subtask:
        """Consume the piece: the remainder is assigned entirely.

        *candidate* may pass back the subtask a preceding
        :meth:`as_candidate` built for the admission test, provided the
        piece was not mutated in between — it is returned as-is instead of
        constructing an identical copy.
        """
        sub = candidate if candidate is not None else self.as_candidate()
        self.cost = 0.0
        return sub

    def split_off(
        self, first_cost: float, response: Optional[float] = None
    ) -> Optional[Subtask]:
        """Peel a body subtask of cost *first_cost* off the front.

        Returns the body subtask (or ``None`` when *first_cost* is ~0, in
        which case nothing is assigned and the piece is unchanged).  The
        remainder keeps the leftover cost with an incremented index and an
        accordingly shortened synthetic deadline.

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
            return None
        if first_cost >= self.cost - EPS:
            raise ValueError(
                "split must leave a non-empty remainder; "
                "use finalize() for an entire assignment"
            )
        if response is None:
            response = first_cost
        if response < first_cost - EPS:
            raise ValueError("a body's response cannot undercut its cost")
        body = Subtask(
            cost=first_cost,
            period=self.task.period,
            deadline=self.deadline,
            parent=self.task,
            index=self.index,
            kind=SubtaskKind.BODY,
        )
        self.cost -= first_cost
        self.index += 1
        self.body_cost += first_cost
        self.body_response += response
        return body


def build_split_views(processors: Sequence[ProcessorState]) -> Dict[int, SplitTaskView]:
    """Group assigned subtasks by parent task id."""
    views: Dict[int, SplitTaskView] = {}
    for proc in processors:
        for sub in proc.subtasks:
            view = views.setdefault(sub.parent.tid, SplitTaskView(task=sub.parent))
            view.pieces.append(sub)
    return views


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
        if perf_config.debug_invariants:
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
            for sub in proc.subtasks:
                if sub.parent.tid == tid:
                    hits.append((sub.index, proc.index))
        return [p for _, p in sorted(hits)]

    def split_views(self) -> Dict[int, SplitTaskView]:
        """Per-task grouping of assigned pieces."""
        return build_split_views(self.processors)

    def split_tids(self) -> List[int]:
        """tids of tasks that were actually split (>= 2 pieces)."""
        return [tid for tid, v in self.split_views().items() if len(v.pieces) > 1]

    # -- departure / re-admission (churn) -------------------------------------

    def removed_tids(self) -> List[int]:
        """tids withdrawn via :meth:`remove_task` and not yet re-admitted."""
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

    def restore_task(self, tid: int) -> None:
        """Clear the removed-tid record after a successful re-admission
        (see :func:`repro.core.rmts.readmit_task`)."""
        record = cast(List[int], self.info.setdefault("removed_tids", []))
        if tid in record:
            record.remove(tid)

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
        5. each processor passes exact RTA;
        6. consecutive pieces of a split task live on distinct processors.

        For EDF partitions (``info["scheduler"] == "edf"``) the
        fixed-priority-specific rules (2, 4) are replaced by window-budget
        consistency, and rule 5 uses the exact DBF test.
        """
        errors: List[str] = []
        views = self.split_views()
        edf = self.scheduler == "edf"

        # Batched-RTA path (perf.config.kernel_batching): one kernel
        # batch answers every processor's exact-RTA check up front,
        # verdict-identical to the per-processor loop below.
        kernel_verdicts: Optional[Dict[int, bool]] = None
        if (
            self.success
            and not edf
            and not structural_only
            and perf_config.kernel_batching
        ):
            from repro.core.kernel import validate_processors

            kernel_verdicts = dict(
                zip(
                    (proc.index for proc in self.processors),
                    validate_processors(self.processors),
                )
            )

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
            seen: Dict[int, int] = {}
            for sub in proc.subtasks:
                seen[sub.parent.tid] = seen.get(sub.parent.tid, 0) + 1
            dupes = [tid for tid, cnt in seen.items() if cnt > 1]
            if dupes:
                errors.append(
                    f"processor {proc.index}: multiple pieces of tasks {dupes}"
                )

            if not edf and not structural_only:
                bodies = proc.body_subtasks()
                if len(bodies) > 1:
                    errors.append(
                        f"processor {proc.index}: {len(bodies)} body subtasks"
                    )
                if bodies:
                    body = bodies[0]
                    others = [
                        s
                        for s in proc.subtasks
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

                    if not edf_schedulable(proc.subtasks):
                        errors.append(
                            f"processor {proc.index}: fails exact DBF test"
                        )
                elif kernel_verdicts is not None:
                    if not kernel_verdicts[proc.index]:
                        errors.append(
                            f"processor {proc.index}: fails exact RTA"
                        )
                elif not proc.is_schedulable():
                    errors.append(f"processor {proc.index}: fails exact RTA")

        for tid, view in views.items():
            procs = self.processors_hosting(tid)
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
        from repro.core.rta import response_times

        errors: List[str] = []
        # Per-processor RTA once.
        responses: Dict[tuple, float] = {}
        for proc in self.processors:
            result = response_times(proc.subtasks)
            ordered = sorted(proc.subtasks, key=lambda s: s.priority)
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
