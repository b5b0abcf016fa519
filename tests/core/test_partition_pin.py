"""Pin of full partitions over the quick E3 grid.

perfbench pins only the verdicts of the acceptance sweep.  This pins what
each of the sweep's algorithms builds: for every processor its rows in
append order (cost, period and deadline as ``float.hex``, priority,
subtask index, kind), role and ``full`` flag, and for every partition its
success, ``unassigned_tids`` and ``info`` (floats as ``float.hex``).  A
change to the partition skeleton that keeps verdicts but moves a split
cost by an ulp, reorders rows or relabels a processor changes the digest.
"""

import hashlib

from repro.core.baselines.partitioned import FitHeuristic, partition_no_split
from repro.core.baselines.spa import partition_spa2
from repro.core.rmts import partition_rmts
from repro.runner import cell_rng
from repro.taskgen.generators import TaskSetGenerator

#: The quick E3 configuration (``repro.experiments`` e3, quick mode).
PROCESSORS = 4
U_GRID = [0.60, 0.70, 0.80, 0.90, 0.95]
SAMPLES = 25

ALGORITHMS = {
    "RM-TS": lambda ts, m: partition_rmts(ts, m),
    "RM-TS*": lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False),
    "SPA2": partition_spa2,
    "P-RM-FFD": lambda ts, m: partition_no_split(
        ts, m, heuristic=FitHeuristic.FIRST_FIT
    ),
}

#: Digest of the partitions below, recorded before the partition
#: skeleton was rewritten; it must never move.
EXPECTED = "09ffd87439a7b6810d36f35cc519f25dd81d3380ea1802905f97ac9e1e5ab31d"


def _canon(value):
    """A repr-stable form of an ``info`` value (floats by their hex)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return sorted((str(k), _canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _partition_record(result) -> tuple:
    processors = [
        (
            proc.index,
            proc.role.value,
            proc.full,
            proc.pre_assigned_tid,
            [
                (
                    row.cost.hex(),
                    row.period.hex(),
                    row.deadline.hex(),
                    row.priority,
                    row.index,
                    row.kind.value,
                )
                for row in proc.rows
            ],
        )
        for proc in result.processors
    ]
    return (
        result.algorithm,
        result.success,
        list(result.unassigned_tids),
        _canon(result.info),
        processors,
    )


def _digest() -> str:
    generator = TaskSetGenerator(n=3 * PROCESSORS, period_model="loguniform")
    digest = hashlib.sha256()
    for level, u in enumerate(U_GRID):
        for sample in range(SAMPLES):
            taskset = generator.generate(
                u_norm=u, processors=PROCESSORS, seed=cell_rng(0, level, sample)
            )
            for label, partition in ALGORITHMS.items():
                record = (label, level, sample, _partition_record(
                    partition(taskset, PROCESSORS)
                ))
                digest.update(repr(record).encode())
    return digest.hexdigest()


def test_quick_e3_partitions_are_pinned():
    assert _digest() == EXPECTED
