"""Pin of every MaxSplit result of the sweep-e3 configuration.

The benchmark's E3 sweep (M=8, n=24, log-uniform periods, the 19 levels
U_M = 0.55 .. 1.0) reaches MaxSplit through RM-TS and RM-TS*.  This
hashes ``float.hex`` of every split cost those two partitioners ask for,
in call order, over three samples per level.  A change to the MaxSplit
search that moves any split cost by an ulp, or asks for a different
sequence of splits, changes the digest.
"""

import hashlib

import numpy as np

from repro.core.admission import ExactRTAAdmission
from repro.core.rmts import partition_rmts
from repro.runner import cell_rng
from repro.taskgen.generators import TaskSetGenerator

PROCESSORS = 8
U_GRID = [float(u) for u in np.arange(0.55, 1.001, 0.025)]
SAMPLES = 3

ALGORITHMS = {
    "RM-TS": lambda ts, m: partition_rmts(ts, m),
    "RM-TS*": lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False),
}

#: Digest of the split costs below, recorded before the context path's
#: constraint order was changed; it must never move.
EXPECTED = "febb24307621873302447b082b7c7d3cff97be2e0457f23760d04fef0b03a8be"
#: How many split costs the digest covers.
EXPECTED_CALLS = 321


def _split_costs(monkeypatch) -> list:
    costs = []
    real = ExactRTAAdmission.split_cost

    def recorded(self, proc, piece):
        cost = real(self, proc, piece)
        costs.append(cost)
        return cost

    monkeypatch.setattr(ExactRTAAdmission, "split_cost", recorded)
    generator = TaskSetGenerator(n=3 * PROCESSORS, period_model="loguniform")
    for level, u in enumerate(U_GRID):
        for sample in range(SAMPLES):
            taskset = generator.generate(
                u_norm=u, processors=PROCESSORS, seed=cell_rng(0, level, sample)
            )
            for partition in ALGORITHMS.values():
                partition(taskset, PROCESSORS)
    return costs


def test_sweep_e3_split_costs_are_pinned(monkeypatch):
    costs = _split_costs(monkeypatch)
    digest = hashlib.sha256(" ".join(c.hex() for c in costs).encode())
    assert (len(costs), digest.hexdigest()) == (EXPECTED_CALLS, EXPECTED)
