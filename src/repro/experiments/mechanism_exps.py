"""E9 & E10 — mechanism-level experiments.

E9 inspects RM-TS's pre-assignment phase (Section V): at most ``M`` heavy
tasks are ever pre-assigned (the pre-assign condition fails once no normal
processors remain); on successful partitions the pre-assigned task is the
lowest-priority task on its processor (Lemma 11's conclusion).

E10 compares the two MaxSplit implementations (Section IV-A): the binary
search over ``[0, C]`` and the efficient scheduling-points variant of [22]
must agree to float precision; the points variant needs far fewer RTA
evaluations.  It measures a newcomer above every resident with a period
no longer than theirs, the shape RM-TS phase 2 makes, and one below
every resident, and times the points variant with the processor's
analysis context too (the path partitioning takes), checking that it
returns the reference's float bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro._util.tables import Table
from repro.core.bounds import light_task_threshold
from repro.core.maxsplit import max_split_binary, max_split_points
from repro.core.partition import PendingPiece, ProcessorState
from repro.core.rmts import partition_rmts
from repro.core.task import Task
from repro.experiments.base import ExperimentReport, register
from repro.taskgen.generators import TaskSetGenerator

__all__ = ["run_e9", "run_e10"]


@register("e9", "Pre-assignment behaviour of RM-TS on heavy-laden sets")
def run_e9(quick: bool = True, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="e9",
        title="Pre-assignment behaviour of RM-TS on heavy-laden sets",
        paper_claim=(
            "The number of pre-assigned tasks is at most the number of "
            "processors (Section V-A); on pre-assigned processors the "
            "pre-assigned task has the lowest priority (Lemma 11)."
        ),
    )
    samples = 20 if quick else 150
    m = 4
    n = 2 * m  # few, fat tasks -> many heavy ones
    gen = TaskSetGenerator(n=n, period_model="loguniform").with_cap(0.9)
    table = Table(
        ["U_M", "sets", "mean heavy", "mean pre-assigned", "max pre-assigned",
         "success", "valid"],
        title=f"E9: RM-TS pre-assignment, M={m}, N={n}",
    )
    bound_ok = True
    lowest_prio_ok = True
    for u in (0.70, 0.80):
        heavies, pres, succ, valid_cnt, max_pre = [], [], 0, 0, 0
        for i in range(samples):
            ts = gen.generate(u_norm=u, processors=m, seed=seed + 31 * i)
            part = partition_rmts(ts, m)
            pre = part.info["pre_assigned_tids"]
            cutoff = light_task_threshold(n)
            heavies.append(sum(1 for t in ts if t.utilization > cutoff))
            pres.append(len(pre))
            max_pre = max(max_pre, len(pre))
            if len(pre) > m:
                bound_ok = False
            if part.success:
                succ += 1
                if not part.validate():
                    valid_cnt += 1
                # Lemma 11: the pre-assigned task is lowest-priority on its
                # processor in a successful partition.
                for proc in part.processors:
                    if proc.pre_assigned_tid is None or not proc.rows:
                        continue
                    if proc.role.value != "pre-assigned":
                        continue
                    lowest = max(row.priority for row in proc.rows)
                    if proc.pre_assigned_tid != lowest:
                        lowest_prio_ok = False
        table.add_row(
            [u, samples, float(np.mean(heavies)), float(np.mean(pres)),
             max_pre, succ, valid_cnt]
        )
    report.tables.append(table)
    report.checks["pre_assigned_at_most_M"] = bound_ok
    report.checks["pre_assigned_lowest_priority"] = lowest_prio_ok
    report.observations.append(
        "Pre-assignment count never exceeded M, and every successful "
        "partition kept the pre-assigned heavy task lowest-priority on its "
        "processor."
    )
    return report


def _random_processor(rng: np.random.Generator, n_tasks: int) -> ProcessorState:
    """A processor loaded near capacity with random subtasks."""
    gen = TaskSetGenerator(n=n_tasks, period_model="loguniform")
    ts = gen.generate(u_norm=0.55, processors=1, seed=rng)
    proc = ProcessorState(index=0)
    for t in ts:
        proc.add(t)
    return proc


#: E10's newcomer shapes, by the tid (= priority) the newcomer gets:
#: above every resident, with a period no longer than theirs (RM order,
#: the only shape RM-TS phase 2 makes), and below every resident with
#: the drawn period (where no lower-priority constraint runs).
_E10_NEWCOMERS = {"highest priority": -1, "lowest priority": 10_000}


@register("e10", "MaxSplit: binary search vs scheduling-points variant")
def run_e10(quick: bool = True, seed: int = 0) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="e10",
        title="MaxSplit: binary search vs scheduling-points variant",
        paper_claim=(
            "MaxSplit can be a binary search over [0, C]; the improved "
            "implementation of [22] checks only a small set of candidate "
            "values yet is exact (Section IV-A)."
        ),
    )
    trials = 40 if quick else 400
    rng = np.random.default_rng(seed)
    diffs = {shape: [] for shape in _E10_NEWCOMERS}
    exact = {shape: True for shape in _E10_NEWCOMERS}
    # Seconds per shape: binary search, points reference, points with
    # the processor's context (built before timing, as partitioning
    # caches it).
    seconds = {shape: [0.0, 0.0, 0.0] for shape in _E10_NEWCOMERS}
    for _ in range(trials):
        proc = _random_processor(rng, int(rng.integers(3, 9)))
        drawn = float(rng.uniform(50, 2000))
        share = float(rng.uniform(0.3, 0.9))
        existing = proc.subtasks
        context = proc.rta_context()
        for shape, tid in _E10_NEWCOMERS.items():
            period = drawn if tid > 0 else min(drawn, min(context.periods))
            cost = share * period
            piece = PendingPiece(Task(cost=cost, period=period, tid=tid))
            t0 = time.perf_counter()
            c_bin = max_split_binary(existing, piece)
            t1 = time.perf_counter()
            c_pts = max_split_points(existing, piece)
            t2 = time.perf_counter()
            c_ctx = max_split_points((), piece, context=context)
            t3 = time.perf_counter()
            spent = seconds[shape]
            spent[0] += t1 - t0
            spent[1] += t2 - t1
            spent[2] += t3 - t2
            diffs[shape].append(abs(c_bin - c_pts) / max(cost, 1.0))
            exact[shape] = exact[shape] and c_ctx.hex() == c_pts.hex()
    table = Table(
        ["newcomer", "trials", "max |c_bin - c_pts| (rel)", "binary total s",
         "points total s", "context total s", "points speedup",
         "context speedup"],
        title="E10: MaxSplit implementation agreement and cost",
    )
    for shape in _E10_NEWCOMERS:
        t_binary, t_points, t_context = seconds[shape]
        table.add_row([
            shape, trials, max(diffs[shape]), t_binary, t_points, t_context,
            t_binary / t_points, t_binary / t_context,
        ])
        report.observations.append(
            f"{shape.capitalize()} newcomer: both MaxSplit variants agree to "
            f"{max(diffs[shape]):.2e} relative; the scheduling-points "
            f"variant is {t_binary / t_points:.1f}x faster than binary "
            f"search, {t_binary / t_context:.1f}x with the processor's "
            "context."
        )
    report.tables.append(table)
    worst = max(max(d) for d in diffs.values())
    report.checks["maxsplit_agreement"] = worst < 1e-6
    report.checks["points_not_slower"] = all(
        t_binary > t_points for t_binary, t_points, _ in seconds.values()
    )
    report.checks["context_equals_points"] = all(exact.values())
    return report
