"""Micro-benchmarks of the hot kernels (per the HPC guides: measure the
bottlenecks, not the wrappers).

These are the inner loops every acceptance sweep executes thousands of
times: exact RTA, MaxSplit, full partitioning, the discrete-event
simulator and the task-set generators.
"""

import numpy as np
import pytest

from repro.core.maxsplit import max_split_binary, max_split_points
from repro.core.bounds import harmonic_chain_count
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.rta import RTAContext, is_schedulable
from repro.core.task import Subtask, Task
from repro.sim.engine import simulate_partition
from repro.taskgen.generators import TaskSetGenerator
from repro.taskgen.randfixedsum import randfixedsum
from repro.taskgen.uunifast import uunifast


@pytest.fixture(scope="module")
def workload():
    gen = TaskSetGenerator(n=24, period_model="loguniform")
    return gen.generate(u_norm=0.85, processors=8, seed=42)


@pytest.fixture(scope="module")
def loaded_subtasks(workload):
    return [Subtask.whole(t) for t in list(workload)[:10]]


def test_rta_is_schedulable(benchmark, loaded_subtasks):
    benchmark(is_schedulable, loaded_subtasks)


def test_maxsplit_points(benchmark, loaded_subtasks):
    piece = PendingPiece.of(Task(cost=300.0, period=900.0, tid=10_000))
    benchmark(max_split_points, loaded_subtasks, piece)


def test_maxsplit_binary(benchmark, loaded_subtasks):
    piece = PendingPiece.of(Task(cost=300.0, period=900.0, tid=10_000))
    benchmark(max_split_binary, loaded_subtasks, piece)


def test_admission_incremental_context(benchmark, loaded_subtasks):
    """Cached-context admission: prefix reuse + warm-started fixed points."""
    candidate = Subtask.whole(Task(cost=40.0, period=800.0, tid=10_000))
    proc = ProcessorState(index=0)
    for sub in loaded_subtasks:
        proc.add(sub)
    proc.rta_context()  # build once; probes must not rebuild it
    benchmark(proc.schedulable_with, candidate)


def test_maxsplit_points_prefix_context(benchmark, loaded_subtasks):
    """MaxSplit with the existing-set prefix analyzed once per search."""
    piece = PendingPiece.of(Task(cost=300.0, period=900.0, tid=10_000))
    context = RTAContext(sorted(loaded_subtasks, key=lambda s: s.priority))
    benchmark(max_split_points, loaded_subtasks, piece, context=context)


def test_partition_rmts(benchmark, workload):
    benchmark(partition_rmts, workload, 8)


def test_partition_rmts_light(benchmark):
    gen = TaskSetGenerator(n=24, period_model="loguniform").light()
    ts = gen.generate(u_norm=0.85, processors=8, seed=7)
    benchmark(partition_rmts_light, ts, 8)


def test_simulate_partition(benchmark):
    gen = TaskSetGenerator(n=12, period_model="discrete")
    ts = gen.generate(u_norm=0.8, processors=4, seed=3)
    part = partition_rmts(ts, 4)
    assert part.success
    benchmark(simulate_partition, part, horizon=2000.0)


def test_uunifast_kernel(benchmark):
    rng = np.random.default_rng(0)
    benchmark(uunifast, 100, 40.0, rng)


def test_randfixedsum_kernel(benchmark):
    rng = np.random.default_rng(0)
    benchmark(randfixedsum, 50, 20.0, rng, m=10)


def test_harmonic_chain_count_kernel(benchmark):
    rng = np.random.default_rng(0)
    periods = rng.uniform(10, 1000, size=40)
    benchmark(harmonic_chain_count, periods)
