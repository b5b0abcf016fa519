"""Split costs do not depend on the host's BLAS kernel.

OpenBLAS built for several CPUs (``DYNAMIC_ARCH``) picks its kernel at run
time, and kernels add in different orders.  MaxSplit sums with
``math.fsum`` in plain Python, so RM-TS on an E3-shaped corpus (M=8,
n=24, 19 utilization levels) must produce the same split costs under any
``OPENBLAS_CORETYPE``.  Each kernel runs in its own interpreter because
OpenBLAS reads the variable once, when NumPy loads it.
"""

import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_DIGEST = """
import hashlib
from repro.core.rmts import partition_rmts
from repro.core.task import SubtaskKind
from repro.taskgen.generators import TaskSetGenerator

gen = TaskSetGenerator(n=24, period_model="loguniform")
digest = hashlib.sha256()
pieces = 0
for level in range(19):
    for sample in range(12):
        ts = gen.generate(u_norm=0.80 + 0.01 * level, processors=8,
                          seed=1000 * level + sample)
        for proc in partition_rmts(ts, 8).processors:
            for sub in proc.subtasks:
                if sub.kind is not SubtaskKind.WHOLE:
                    digest.update(repr((sub.parent.tid, sub.index, sub.cost,
                                        sub.deadline)).encode())
                    pieces += 1
print(pieces, digest.hexdigest())
"""


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return fh.read()
    except OSError:
        return ""


def _split_digest(coretype: str) -> str:
    env = dict(os.environ)
    env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


@pytest.mark.skipif(
    sys.platform != "linux" or " avx2" not in _cpu_flags(),
    reason="forcing the Haswell kernel needs an x86-64 CPU with AVX2",
)
def test_split_costs_are_equal_under_two_blas_kernels():
    haswell = _split_digest("Haswell")
    prescott = _split_digest("Prescott")
    assert int(haswell.split()[0]) > 1000  # the corpus does split
    assert haswell == prescott
