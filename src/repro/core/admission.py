"""Admission policies: how a partitioning algorithm decides whether a
(sub)task fits on a processor, and how much of it fits when splitting.

The paper's central algorithmic point (Section IV): ``RM-TS/light`` and
``RM-TS`` use **exact response-time analysis** for admission, whereas the
prior algorithms of [16] (SPA1/SPA2) used a **utilization threshold** — the
worst-case bound itself — and therefore "never utilize more than the
worst-case bound".  Encoding the decision as a policy object lets the same
partitioning skeletons express both the new algorithms and the baselines,
and gives the ablation of E3 (RM-TS structure with threshold admission) for
free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

from repro._util.floats import EPS, approx_le
from repro.core.maxsplit import max_split
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.task import Task

__all__ = ["AdmissionPolicy", "ExactRTAAdmission", "ThresholdAdmission"]


class AdmissionPolicy(ABC):
    """Strategy deciding fits/splits during partitioning."""

    @abstractmethod
    def fits(self, proc: ProcessorState, candidate: Union[Task, PendingPiece]) -> bool:
        """Whether *candidate* (a whole task, or a pending piece's whole
        remainder) can be assigned entirely to *proc*."""

    @abstractmethod
    def split_cost(self, proc: ProcessorState, piece: PendingPiece) -> float:
        """Maximal front cost of *piece* that *proc* can accept (>= 0)."""

    def describe(self) -> str:
        """Short label for experiment tables."""
        return type(self).__name__


class ExactRTAAdmission(AdmissionPolicy):
    """Admission by exact RTA; splitting by MaxSplit (the paper's choice).

    Parameters
    ----------
    method:
        MaxSplit implementation, ``"points"`` (default) or ``"binary"``.

    Both decisions run on the processor's cached
    :class:`~repro.core.rta.RTAContext`: admission through
    :meth:`ProcessorState.schedulable_with
    <repro.core.partition.ProcessorState.schedulable_with>` and MaxSplit
    with the context's prefix analysis.  Each is bit-identical to its
    from-scratch reference (``is_schedulable`` on the merged list,
    ``max_split(..., context=None)``).
    """

    def __init__(self, method: str = "points") -> None:
        if method not in ("points", "binary"):
            raise ValueError(f"unknown MaxSplit method: {method!r}")
        self.method = method

    def fits(self, proc: ProcessorState, candidate: Union[Task, PendingPiece]) -> bool:
        return proc.schedulable_with(candidate)

    def split_cost(self, proc: ProcessorState, piece: PendingPiece) -> float:
        # The context stands for the contents (``existing`` goes unread).
        return max_split(
            (), piece, method=self.method, context=proc.rta_context()
        )

    def describe(self) -> str:
        return f"RTA({self.method})"


class ThresholdAdmission(AdmissionPolicy):
    """Admission by a per-processor utilization threshold (SPA-style, [16]).

    A candidate fits when the processor's assigned utilization plus the
    candidate's stays at or below the threshold; a split fills the processor
    exactly up to the threshold: ``c = (threshold - U(P)) * T``.

    With the threshold set to the Liu & Layland bound ``Theta(N)`` of the
    *whole* task set this reproduces the admission rule of SPA1/SPA2.
    """

    def __init__(self, threshold: float) -> None:
        if not 0.0 < threshold <= 1.0 + EPS:
            raise ValueError("threshold must lie in (0, 1]")
        self.threshold = float(threshold)

    def fits(self, proc: ProcessorState, candidate: Union[Task, PendingPiece]) -> bool:
        # The candidate's utilization, without the property hop.
        return approx_le(
            proc.utilization + candidate.cost / candidate.period, self.threshold
        )

    def split_cost(self, proc: ProcessorState, piece: PendingPiece) -> float:
        headroom = self.threshold - proc.utilization
        if headroom <= EPS:
            return 0.0
        return min(headroom * piece.period, piece.cost)

    def describe(self) -> str:
        return f"threshold({self.threshold:.4f})"
