"""Property tests for the deflatable-bound property (Lemma 1).

A D-PUB computed from the *original* task set must remain a valid
utilization bound for any task set obtained by decreasing execution times.
We validate against exact RTA: whenever the deflated set's utilization is
at or below the original bound value, it must pass exact uniprocessor
schedulability — for every implemented bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import ALL_BOUNDS
from repro.core.rta import is_schedulable
from repro.core.task import Subtask, Task, TaskSet
from repro.sim.uniproc import simulate_uniprocessor
from repro.taskgen.generators import TaskSetGenerator


def deflate_to(taskset: TaskSet, target_total: float, rng) -> TaskSet:
    """Randomly decrease costs so the total utilization hits *target*."""
    utils = np.array([t.utilization for t in taskset])
    weights = rng.random(len(taskset)) + 1e-3
    # scale each task's utilization toward the target, random mixture
    scale = target_total / float(utils.sum())
    mix = np.clip(scale * weights / weights.mean(), 0.0, 1.0)
    # ensure sum <= target by a final uniform correction
    new_utils = utils * mix
    total = float(new_utils.sum())
    if total > target_total:
        new_utils *= target_total / total
    tasks = []
    for t, u in zip(taskset, new_utils):
        cost = max(float(u * t.period), 1e-9)
        tasks.append(Task(cost=cost, period=t.period))
    return TaskSet(tasks)


@given(st.integers(0, 20_000))
@settings(max_examples=60, deadline=None)
def test_deflated_sets_below_bound_are_rta_schedulable(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    model = ["loguniform", "harmonic", "kchain", "discrete"][
        int(rng.integers(0, 4))
    ]
    gen = TaskSetGenerator(n=n, period_model=model, k=min(2, n))
    base = gen.generate(u_norm=1.0, processors=2, seed=rng)  # U(tau) = 2
    for bound in ALL_BOUNDS:
        lam = bound.value(base)
        target = lam * float(rng.uniform(0.3, 1.0))
        deflated = deflate_to(base, target, rng)
        assert deflated.total_utilization <= lam + 1e-9
        subs = [Subtask.whole(t) for t in deflated]
        assert is_schedulable(subs), (
            f"{bound.name}: deflated set below Lambda={lam:.4f} "
            f"(U={deflated.total_utilization:.4f}) failed exact RTA"
        )


@given(st.integers(0, 20_000))
@settings(max_examples=15, deadline=None)
def test_deflated_harmonic_sets_simulate_cleanly(seed):
    """End-to-end: harmonic bound 1.0, deflation, simulation — no misses."""
    rng = np.random.default_rng(seed)
    gen = TaskSetGenerator(n=6, period_model="harmonic", tmin=8.0)
    base = gen.generate(u_norm=1.0, processors=2, seed=rng)
    deflated = deflate_to(base, float(rng.uniform(0.5, 0.999)), rng)
    sim = simulate_uniprocessor(deflated, horizon=None)
    assert sim.ok


def test_bound_values_stable_under_deflation():
    """The bound *value* itself only depends on periods/N, so deflation
    never changes it — the formal basis for using Lambda(tau) on deflated
    per-processor subsets."""
    gen = TaskSetGenerator(n=8, period_model="kchain", k=2)
    ts = gen.generate(u_norm=0.8, processors=4, seed=5)
    shrunk = ts.scaled_costs(0.25)
    for bound in ALL_BOUNDS:
        assert bound.value(ts) == pytest.approx(bound.value(shrunk))
