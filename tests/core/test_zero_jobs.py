"""A synchronous release puts at least one job of every task in any
window, so no job count may be zero.

``ceil(t/T - EPS)`` alone is 0 once ``t <= EPS·T``; these cases put a
task with a period far beyond ``1/EPS`` times the residents' windows at
the highest priority, where that undercount used to accept an
unschedulable processor and let MaxSplit hand a piece its full cost.
"""

import pytest

from repro.core.maxsplit import max_split_binary, max_split_points
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rta import RTAContext, is_schedulable, response_time
from repro.core.task import Subtask, Task


def residents():
    """(2, 4) above (4, 8): schedulable alone, responses 2 and 8."""
    return [
        Subtask(cost=2.0, period=4.0, deadline=4.0,
                parent=Task(cost=2.0, period=4.0, tid=2)),
        Subtask(cost=4.0, period=8.0, deadline=8.0,
                parent=Task(cost=4.0, period=8.0, tid=4)),
    ]


def test_residents_alone_are_schedulable():
    assert is_schedulable(residents())


class TestLongPeriodTaskAbove:
    # A (1, 1e13) task at the highest priority adds one unit to (4, 8)'s
    # window: its response is 11 > 8.

    def test_response_counts_one_job(self):
        assert response_time(4.0, [1.0, 2.0], [1e13, 4.0], 16.0) == 11.0
        assert response_time(4.0, [1.0, 2.0], [1e13, 4.0], 8.0) is None

    def test_is_schedulable_rejects(self):
        newcomer = Task(cost=1.0, period=1e13, tid=1)
        assert not is_schedulable(residents() + [Subtask.whole(newcomer)])

    def test_context_admission_rejects(self):
        assert not RTAContext(residents()).admits(1.0, 1e13, 1e13, 1)
        proc = ProcessorState(index=0)
        for sub in residents():
            proc.add(sub.parent)
        assert not proc.schedulable_with(Task(cost=1.0, period=1e13, tid=1))


class TestMaxSplitAbove:
    # The (4, 8) resident meets its deadline exactly, so any newcomer job
    # in its window leaves no room: the largest admissible cost is 0.

    @pytest.fixture
    def piece(self):
        return PendingPiece(Task(cost=1e12, period=1e13, tid=1))

    def test_reference_path(self, piece):
        assert max_split_points(residents(), piece) == 0.0

    def test_context_path(self, piece):
        ctx = RTAContext(residents())
        assert max_split_points((), piece, context=ctx) == 0.0

    def test_binary_search(self, piece):
        assert max_split_binary(residents(), piece) == 0.0
