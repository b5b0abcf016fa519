"""Property tests: the batched RTA kernel vs the serial reference.

``repro.core.kernel`` promises *bit-identity*, not mere agreement: for
any batch of processor checks, every backend must reproduce the serial
path's verdicts, response-time floats, first-failure indices and
``rta_calls``/``rta_iterations`` accounting exactly.  These tests drive
that promise on randomized corpora — whole-task placements and real
``partition_rmts`` partitions with split subtasks — plus the adapter
integrations (partition validation, checked acceptance tests, service
batch revalidation) and the fork-pool counter protocol.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.algorithms import (
    PARTITIONERS,
    kernel_checked_algorithms,
    kernel_checked_test,
)
from repro.core.kernel import (
    BatchRTARequest,
    available_backends,
    check_subtask_lists,
    evaluate_batch,
    native_available,
    resolve_backend,
    stage_requests,
    stage_subtask_lists,
    using,
    validate_processors,
)
from repro.core.kernel import native as native_mod
from repro.core.rmts import partition_rmts
from repro.core.rta import is_schedulable, response_times
from repro.core.serialization import partition_to_dict
from repro.core.task import Subtask, Task, TaskSet
from repro.perf import config as perf_config
from repro.perf.telemetry import COUNTERS
from repro.runner.pool import cell_rng, chunked_map
from repro.service.handlers import _kernel_validate_bodies
from repro.taskgen.generators import TaskSetGenerator

pytestmark = pytest.mark.kernel

seeds = st.integers(min_value=0, max_value=10_000)

_GEN = TaskSetGenerator(n=12, period_model="loguniform")


def _worst_fit_lists(taskset: TaskSet, m: int):
    loads = [0.0] * m
    lists = [[] for _ in range(m)]
    for task in taskset:
        k = min(range(m), key=lambda i: loads[i])
        lists[k].append(Subtask.whole(task))
        loads[k] += task.utilization
    return lists


def _corpus(seed: int, *, samples: int = 6, m: int = 4):
    """Subtask lists spanning schedulable, overloaded and empty cases."""
    rng = np.random.default_rng(seed)
    lists = [[]]
    for i in range(samples):
        u = float(rng.uniform(0.5, 1.3))
        ts = _GEN.generate(u_norm=u, processors=m, seed=cell_rng(seed, i))
        lists.extend(_worst_fit_lists(ts, m))
    return lists


def _serial_reference(lists):
    """Per-list serial verdicts and exact counter deltas."""
    verdicts, calls, iters = [], [], []
    for sts in lists:
        before = COUNTERS.snapshot()
        verdicts.append(is_schedulable(sts))
        delta = COUNTERS.delta_since(before)
        calls.append(delta["rta_calls"])
        iters.append(delta["rta_iterations"])
    return verdicts, calls, iters


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_batched_bit_identical_to_serial_on_random_corpora(seed):
    lists = _corpus(seed)
    verdicts, calls, iters = _serial_reference(lists)
    before = COUNTERS.snapshot()
    outcome = check_subtask_lists(lists, backend="numpy")
    delta = COUNTERS.delta_since(before)
    assert [bool(v) for v in outcome.verdicts] == verdicts
    assert outcome.rta_calls.tolist() == calls
    assert outcome.rta_iterations.tolist() == iters
    # The batch bills exactly the serial totals (short-circuit included);
    # the honest full-batch cost lives in the krn_* counters instead.
    assert delta["rta_calls"] == sum(calls)
    assert delta["rta_iterations"] == sum(iters)
    assert delta["krn_batches"] == 1
    assert delta["krn_requests"] == len(lists)
    assert delta["krn_lane_iterations"] >= delta["rta_iterations"]


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_responses_and_first_fail_match_serial_lane_by_lane(seed):
    lists = _corpus(seed)
    outcome = check_subtask_lists(
        lists, backend="numpy", collect_responses=True
    )
    for q, sts in enumerate(lists):
        fb = int(outcome.first_fail[q])
        if fb == -2:  # utilization precheck rejected: no lanes analyzed
            assert not outcome.verdicts[q]
            assert outcome.rta_calls[q] == 0
            continue
        ref = response_times(sts)
        got = outcome.responses[q]
        if fb == -1:
            assert bool(outcome.verdicts[q])
            assert ref.schedulable
            assert np.array_equal(got, ref.responses)
        else:
            # First failing lane: the serial short-circuit stops here,
            # so only the prefix is analyzed (and bit-equal).
            assert not outcome.verdicts[q]
            assert np.isnan(ref.responses[fb])
            assert not np.isnan(ref.responses[:fb]).any()
            assert np.array_equal(got[:fb], ref.responses[:fb])
            assert np.isnan(got[fb:]).all()


@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_all_backends_agree_exactly(seed):
    lists = _corpus(seed)
    staged = stage_subtask_lists(lists)
    outcomes = [
        evaluate_batch(staged, backend=b, collect_responses=True)
        for b in available_backends()
    ]
    base = outcomes[0]
    for other in outcomes[1:]:
        assert np.array_equal(base.verdicts, other.verdicts)
        assert np.array_equal(base.first_fail, other.first_fail)
        assert np.array_equal(base.rta_calls, other.rta_calls)
        assert np.array_equal(base.rta_iterations, other.rta_iterations)
        for mine, theirs in zip(base.responses, other.responses):
            assert np.array_equal(mine, theirs, equal_nan=True)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_kernel_agrees_on_real_partitions_with_split_subtasks(seed):
    rng = np.random.default_rng(seed)
    ts = _GEN.generate(
        u_norm=float(rng.uniform(0.6, 0.95)),
        processors=4,
        seed=cell_rng(seed, 0),
    )
    result = partition_rmts(ts, 4)
    if not result.success:
        return
    lists = [proc.subtasks for proc in result.processors]
    serial = [is_schedulable(sts) for sts in lists]
    assert validate_processors(result.processors) == serial
    assert all(serial)  # Lemma 4: success implies schedulable


def _wide_corpus(seed: int, *, requests: int = 8):
    """Processors of 18..40 whole tasks: lanes with more than 16
    interferers, the widths the serial path once ran through ``np.dot``."""
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(requests):
        n = int(rng.integers(18, 41))
        total = float(rng.uniform(0.6, 1.02))
        utils = rng.dirichlet(np.ones(n)) * total
        # Rate-monotonic order, so most lanes run instead of the first
        # short-period task failing behind long-period interferers.
        periods = np.sort(
            np.exp(rng.uniform(np.log(4.0), np.log(400.0), size=n))
        )
        lists.append([
            Subtask.whole(
                Task(
                    cost=float(max(u, 1e-4) * t), period=float(t), tid=tid
                )
            )
            for tid, (u, t) in enumerate(zip(utils, periods))
        ])
    return lists


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_wide_lanes_bit_identical_to_serial_on_every_backend(seed):
    lists = _wide_corpus(seed)
    verdicts, calls, iters = _serial_reference(lists)
    staged = stage_subtask_lists(lists)
    for backend in available_backends():
        outcome = evaluate_batch(
            staged, backend=backend, collect_responses=True
        )
        assert [bool(v) for v in outcome.verdicts] == verdicts
        assert outcome.rta_calls.tolist() == calls
        assert outcome.rta_iterations.tolist() == iters
        for q, sts in enumerate(lists):
            fb = int(outcome.first_fail[q])
            if fb == -2:
                continue
            ref = response_times(sts).responses
            upto = len(sts) if fb == -1 else fb
            assert np.array_equal(outcome.responses[q][:upto], ref[:upto])


def test_empty_and_trivial_requests():
    outcome = check_subtask_lists([[]], backend="numpy")
    assert outcome.verdicts.tolist() == [True]
    assert outcome.rta_calls.tolist() == [0]
    assert outcome.first_fail.tolist() == [-1]

    # Overload rejected by the precheck: sentinel -2, zero calls billed.
    heavy = Task(cost=9.0, period=10.0, tid=0)
    light = Task(cost=5.0, period=10.0, tid=1)
    overloaded = [Subtask.whole(heavy), Subtask.whole(light)]
    assert not is_schedulable(overloaded)
    outcome = check_subtask_lists([overloaded], backend="numpy")
    assert outcome.verdicts.tolist() == [False]
    assert outcome.first_fail.tolist() == [-2]
    assert outcome.rta_calls.tolist() == [0]


def test_stage_requests_and_stage_subtask_lists_are_interchangeable():
    lists = _corpus(3)
    requests = [BatchRTARequest.from_subtasks(sts) for sts in lists]
    a = evaluate_batch(stage_subtask_lists(lists), backend="numpy")
    b = evaluate_batch(stage_requests(requests), backend="numpy")
    c = evaluate_batch(requests, backend="numpy")
    for other in (b, c):
        assert np.array_equal(a.verdicts, other.verdicts)
        assert np.array_equal(a.first_fail, other.first_fail)
        assert np.array_equal(a.rta_iterations, other.rta_iterations)


def test_using_and_resolve_backend_semantics():
    assert resolve_backend("python") == "python"
    with using("python"):
        assert resolve_backend() == "python"
        with using("numpy"):
            assert resolve_backend() == "numpy"
        assert resolve_backend() == "python"
    with pytest.raises(ValueError):
        resolve_backend("fortran")
    with pytest.raises(ValueError):
        perf_config.use_kernel_backend("fortran").__enter__()


def test_native_fallback_bills_counter(monkeypatch):
    monkeypatch.setattr(native_mod, "_LOAD_ATTEMPTED", True)
    monkeypatch.setattr(native_mod, "_LIB", None)
    monkeypatch.setattr(native_mod, "_LOAD_ERROR", "forced by test")
    assert not native_available()
    assert "forced by test" in str(native_mod.native_error())
    before = COUNTERS.krn_fallbacks
    assert resolve_backend("native") == "numpy"
    assert COUNTERS.krn_fallbacks == before + 1
    # The fallback is transparent at the evaluate_batch level too.
    outcome = check_subtask_lists(_corpus(5), backend="native")
    assert outcome.backend == "numpy"


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
def test_native_backend_runs_and_bills_native_calls():
    before = COUNTERS.snapshot()
    outcome = check_subtask_lists(_corpus(7), backend="native")
    delta = COUNTERS.delta_since(before)
    assert outcome.backend == "native"
    assert delta["krn_native_calls"] >= 1
    assert delta["krn_fallbacks"] == 0


def _pool_worker(payload, item):
    """Module-level worker: one kernel batch per item (fork-picklable)."""
    lists = _corpus(item)
    outcome = check_subtask_lists(lists, backend="numpy")
    return [bool(v) for v in outcome.verdicts]


def test_counter_deltas_identical_at_any_jobs_level():
    items = [11, 22, 33, 44]
    before = COUNTERS.snapshot()
    serial = chunked_map(_pool_worker, items, jobs=1)
    serial_delta = COUNTERS.delta_since(before)
    before = COUNTERS.snapshot()
    parallel = chunked_map(_pool_worker, items, jobs=2, chunksize=1)
    parallel_delta = COUNTERS.delta_since(before)
    assert serial == parallel
    assert serial_delta == parallel_delta
    assert serial_delta["krn_batches"] == len(items)


def test_kernel_checked_test_preserves_verdicts():
    ts = _GEN.generate(u_norm=0.7, processors=4, seed=cell_rng(9, 0))
    plain = PARTITIONERS["rmts"](ts, 4).success
    checked = kernel_checked_test(PARTITIONERS["rmts"])
    assert checked(ts, 4) == plain
    with perf_config.use_kernel_batching(True):
        assert checked(ts, 4) == plain


def test_kernel_checked_algorithms_registry():
    menu = kernel_checked_algorithms(["rmts", "spa2"])
    assert sorted(menu) == ["rmts", "spa2"]
    assert sorted(kernel_checked_algorithms()) == sorted(PARTITIONERS)
    with pytest.raises(KeyError):
        kernel_checked_algorithms(["rmts", "nope"])


def test_partition_validate_agrees_with_kernel_path():
    ts = _GEN.generate(u_norm=0.75, processors=4, seed=cell_rng(13, 0))
    result = partition_rmts(ts, 4)
    if not result.success:
        pytest.skip("seed produced an unpartitionable set")
    plain = result.validate()
    with perf_config.use_kernel_batching(True):
        batched = result.validate()
    assert plain == batched == []


def test_service_batch_bodies_gain_kernel_validated_flag():
    ts = _GEN.generate(u_norm=0.7, processors=4, seed=cell_rng(17, 0))
    result = partition_rmts(ts, 4)
    if not result.success:
        pytest.skip("seed produced an unpartitionable set")
    body = {"admitted": True, "partition": partition_to_dict(result)}
    rejected = {"admitted": False}
    _kernel_validate_bodies([body, rejected])
    assert body["kernel_validated"] is True
    assert "kernel_validated" not in rejected


def test_krn_counters_are_registered_fields():
    snapshot = COUNTERS.snapshot()
    for name in (
        "krn_batches",
        "krn_requests",
        "krn_lanes",
        "krn_lane_iterations",
        "krn_native_calls",
        "krn_fallbacks",
    ):
        assert name in snapshot
