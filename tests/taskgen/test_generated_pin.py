"""Pin of the task sets the E3 acceptance sweep draws.

The generator is the sweep's (M=8, n=24, log-uniform periods) and every
set comes from the cell stream ``cell_rng(0, level, sample)``, so the
digest covers both the NumPy draws and how they become tasks: each
task's exact cost and period (``float.hex``), its tid (RM priority) and
its name.  A change to task construction that moves any of them by an
ulp, or reorders equal periods, changes the digest.
"""

import hashlib

import numpy as np

from repro.runner import cell_rng
from repro.taskgen.generators import TaskSetGenerator

PROCESSORS = 8
U_GRID = [float(u) for u in np.arange(0.55, 1.001, 0.025)]
SAMPLES = 3

#: Digest of the sets below, recorded before task construction was
#: rewritten; it must never move.
EXPECTED = "803ea7f9d1a23791476add4eccf2dabea996415913bcb9f101651e26c55394bd"


def _digest() -> str:
    generator = TaskSetGenerator(n=3 * PROCESSORS, period_model="loguniform")
    digest = hashlib.sha256()
    for level, u in enumerate(U_GRID):
        for sample in range(SAMPLES):
            taskset = generator.generate(
                u_norm=u, processors=PROCESSORS, seed=cell_rng(0, level, sample)
            )
            for task in taskset:
                digest.update(
                    repr(
                        (task.cost.hex(), task.period.hex(), task.tid, task.name)
                    ).encode()
                )
    return digest.hexdigest()


def test_sweep_task_sets_are_pinned():
    assert _digest() == EXPECTED


def test_fields_are_python_scalars():
    generator = TaskSetGenerator(n=3 * PROCESSORS, period_model="loguniform")
    taskset = generator.generate(
        u_norm=0.9, processors=PROCESSORS, seed=cell_rng(0, 0, 0)
    )
    for task in taskset:
        assert type(task.cost) is float
        assert type(task.period) is float
        assert type(task.tid) is int
