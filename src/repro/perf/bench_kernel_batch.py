"""Batched RTA kernel benchmark: the ``BENCH_kernel_batch.json`` artifact.

Builds the cold-check corpus implied by the committed ``BENCH_sweep``
configuration — the E3 grid (``m = 8``, ``n = 24``, log-uniform periods,
19 utilization levels x 100 samples), each task set placed worst-fit as
whole tasks onto the 8 processors — and measures every way this repo can
answer those 15,200 per-processor schedulability checks:

* ``serial-cold`` — :func:`repro.core.rta.is_schedulable` per subtask
  list: the from-scratch serial baseline (it sorts and stages its float
  lists on every call by design);
* ``serial-staged`` — the same precheck + ``response_time`` loop over
  float lists staged once from :func:`repro.core.rta.rta_arrays`: the
  strongest serial baseline, paying zero staging cost inside the timed
  region;
* ``kernel-python`` / ``kernel-numpy`` / ``kernel-native`` —
  :func:`repro.core.kernel.evaluate_batch` over the whole corpus staged
  once with :func:`repro.core.kernel.stage_subtask_lists` (the kernel's
  "stage once, evaluate many" adapter contract; the one-off staging
  wall is measured and reported as its own mode).

Every mode must reproduce the serial verdict list and the serial
``rta_calls``/``rta_iterations`` totals bit-for-bit; the run aborts
loudly if any disagrees.  The artifact carries the performance
contract the nightly drift gate enforces::

    contract.speedup_ok  =  (serial-cold wall / kernel-numpy wall) >= 10

— an exact boolean, so a regression that erodes the batched speedup
below 10x fails ``python -m repro bench check`` even though raw wall
times are compared with loose tolerance.  Usage::

    PYTHONPATH=src python -m repro.perf.bench_kernel_batch \
        --repeats 5 --out benchmarks/results/BENCH_kernel_batch.json

``--equivalence-only`` skips timing (single repeat, no artifact): the
CI ``kernel-matrix`` job runs it across the backend x numpy x python
matrix purely for the bit-identity assertions.
"""

# repro-lint: disable-file=R8 -- this module IS a CLI entry point
# (python -m repro.perf.bench_kernel_batch); its prints are the report.

from __future__ import annotations

import argparse
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.floats import EPS, pairwise_sum
from repro.core.kernel import (
    evaluate_batch,
    native_available,
    native_error,
    stage_subtask_lists,
)
from repro.core.rta import is_schedulable, response_time, rta_arrays
from repro.core.task import Subtask, TaskSet
from repro.perf.telemetry import COUNTERS, write_bench_json
from repro.runner.pool import cell_rng
from repro.taskgen.generators import TaskSetGenerator

__all__ = ["build_corpus", "run_bench_kernel_batch", "main"]

#: The committed BENCH_sweep shape (see ``bench_sweep._sweep_config``).
_PROCESSORS = 8
_N_TASKS = 3 * _PROCESSORS

#: The contract the nightly drift gate enforces (an exact-compared
#: boolean in the artifact): kernel-numpy must answer the corpus at
#: least this many times faster than the serial-cold baseline.
MIN_SPEEDUP = 10.0


def _u_grid() -> List[float]:
    return [float(u) for u in np.arange(0.55, 1.001, 0.025)]


def _worst_fit_lists(taskset: TaskSet, m: int) -> List[List[Subtask]]:
    """Whole-task worst-fit placement: balanced, split-free processors.

    Deliberately not a real partitioner: the corpus must exercise the
    RTA engine on both schedulable and overloaded processors, and
    worst-fit keeps every processor populated instead of concentrating
    the overload on one.
    """
    loads = [0.0] * m
    lists: List[List[Subtask]] = [[] for _ in range(m)]
    for task in taskset:
        k = min(range(m), key=lambda i: loads[i])
        lists[k].append(Subtask.whole(task))
        loads[k] += task.utilization
    return lists


def build_corpus(
    *, samples: int = 100, seed: int = 0
) -> List[List[Subtask]]:
    """All per-processor subtask lists of the committed sweep grid."""
    gen = TaskSetGenerator(n=_N_TASKS, period_model="loguniform")
    lists: List[List[Subtask]] = []
    for level_idx, u_norm in enumerate(_u_grid()):
        for sample_idx in range(samples):
            rng = cell_rng(seed, level_idx, sample_idx)
            taskset = gen.generate(
                u_norm=u_norm, processors=_PROCESSORS, seed=rng
            )
            lists.extend(_worst_fit_lists(taskset, _PROCESSORS))
    return lists


def _serial_staged_check(
    costs: List[float], periods: List[float], deadlines: List[float]
) -> bool:
    """``is_schedulable`` minus its staging (same ops thereafter)."""
    if not costs:
        return True
    if pairwise_sum([c / t for c, t in zip(costs, periods)]) > 1.0 + EPS:  # repro-lint: disable=R1 (exact serial precheck literal)
        return False
    for i in range(len(costs)):
        r = response_time(costs[i], costs[:i], periods[:i], deadlines[i])
        if r is None:
            return False
    return True


def run_bench_kernel_batch(
    *,
    samples: int = 100,
    repeats: int = 5,
    seed: int = 0,
    equivalence_only: bool = False,
) -> Dict[str, object]:
    """Measure all modes on the committed corpus; return the payload.

    Raises :class:`AssertionError` the moment any mode's verdicts or
    serial-equivalent counter totals deviate from ``serial-cold``.
    """
    corpus = build_corpus(samples=samples, seed=seed)
    staged_serial = [
        [column.tolist() for column in rta_arrays(sts)[:3]] for sts in corpus
    ]

    t0 = time.perf_counter()
    staged_kernel = stage_subtask_lists(corpus)
    stage_wall_first = time.perf_counter() - t0

    def serial_cold() -> List[bool]:
        return [is_schedulable(sts) for sts in corpus]

    def serial_staged() -> List[bool]:
        return [
            _serial_staged_check(costs, periods, deadlines)
            for costs, periods, deadlines in staged_serial
        ]

    def kernel_mode(backend: str) -> Callable[[], List[bool]]:
        def run() -> List[bool]:
            outcome = evaluate_batch(staged_kernel, backend=backend)
            return [bool(v) for v in outcome.verdicts]

        return run

    backends = ["python", "numpy"]
    native_ok = native_available()
    if native_ok:
        backends.append("native")

    modes: List[Tuple[str, Callable[[], List[bool]]]] = [
        ("serial-cold", serial_cold),
        ("serial-staged", serial_staged),
        ("kernel-stage", lambda: stage_subtask_lists(corpus) and []),
    ]
    modes += [(f"kernel-{b}", kernel_mode(b)) for b in backends]

    if equivalence_only:
        repeats = 1

    walls: Dict[str, List[float]] = {name: [] for name, _ in modes}
    counters: Dict[str, Dict[str, int]] = {}
    verdicts: Dict[str, List[bool]] = {}
    # Interleave the modes across repeats so host-load drift hits all
    # of them equally; report the minimum (least-perturbed run).
    for _ in range(repeats):
        for name, fn in modes:
            before = COUNTERS.snapshot()
            t0 = time.perf_counter()
            result = fn()
            walls[name].append(time.perf_counter() - t0)
            counters[name] = COUNTERS.delta_since(before)
            if result:
                verdicts[name] = result

    reference = verdicts["serial-cold"]
    ref_calls = counters["serial-cold"]["rta_calls"]
    ref_iters = counters["serial-cold"]["rta_iterations"]
    checked = [name for name, _ in modes if name != "kernel-stage"]
    for name in checked:
        if verdicts[name] != reference:
            raise AssertionError(
                f"{name} verdicts deviate from serial-cold — "
                "bit-identity broken"
            )
        calls = counters[name]["rta_calls"]
        iters = counters[name]["rta_iterations"]
        if (calls, iters) != (ref_calls, ref_iters):
            raise AssertionError(
                f"{name} bills rta_calls={calls} rta_iterations={iters}, "
                f"serial-cold bills {ref_calls}/{ref_iters} — "
                "serial-equivalent accounting broken"
            )

    serial_min = min(walls["serial-cold"])
    numpy_min = min(walls["kernel-numpy"])
    stage_min = min([stage_wall_first] + walls["kernel-stage"])
    payload: Dict[str, object] = {
        "kind": "bench_kernel_batch",
        "host": {
            "cpu_count": os.cpu_count(),
            "note": (
                "single-process; the kernel modes evaluate the one-off "
                "staged corpus (kernel-stage is that staging cost, paid "
                "once per corpus, not per evaluation)"
            ),
        },
        "config": {
            "experiment_shape": (
                "E3 grid (committed BENCH_sweep config), worst-fit "
                "whole-task placement"
            ),
            "processors": _PROCESSORS,
            "n": _N_TASKS,
            "u_grid_points": len(_u_grid()),
            "samples": samples,
            "seed": seed,
            "repeats": repeats,
        },
        "corpus": {
            "requests": len(corpus),
            "subtasks": int(sum(len(sts) for sts in corpus)),
            "schedulable": int(sum(reference)),
            "serial_rta_calls": ref_calls,
            "serial_rta_iterations": ref_iters,
        },
        "modes": {
            name: {
                "wall_seconds_min": round(min(walls[name]), 5),
                "wall_seconds_all": [round(w, 5) for w in walls[name]],
                "counters": counters[name],
            }
            for name, _ in modes
        },
        "equivalence": {
            "verdicts_identical": True,
            "counters_identical": True,
            "backends_checked": ["python", "numpy"],
            "native": {
                "note": (
                    "identical"
                    if native_ok
                    else f"unavailable: {native_error()}"
                )
            },
        },
        "speedups_vs_serial_cold": {
            name: round(serial_min / min(walls[name]), 3)
            for name, _ in modes
            if name != "serial-cold"
        },
        "speedups_vs_serial_staged": {
            name: round(min(walls["serial-staged"]) / min(walls[name]), 3)
            for name, _ in modes
            if name.startswith("kernel-") and name != "kernel-stage"
        },
        "contract": {
            "backend": "kernel-numpy",
            "baseline": "serial-cold",
            "min_speedup": MIN_SPEEDUP,
            "speedup_ok": bool(serial_min / numpy_min >= MIN_SPEEDUP),
            "note": (
                "exact-compared boolean: the nightly drift gate fails if "
                "a regeneration measures kernel-numpy below "
                f"{MIN_SPEEDUP:g}x serial-cold; staging excluded (it is "
                f"a once-per-corpus cost, measured: {stage_min:.4f}s)"
            ),
        },
    }
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench_kernel_batch",
        description="Measure the batched RTA kernel against the serial "
        "baselines and write the BENCH_kernel_batch.json perf artifact.",
    )
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--equivalence-only",
        action="store_true",
        help="assert backend bit-identity on the corpus and exit "
        "(single repeat, no artifact) — what the CI kernel-matrix runs",
    )
    parser.add_argument(
        "--out", default="benchmarks/results/BENCH_kernel_batch.json"
    )
    args = parser.parse_args(argv)
    payload = run_bench_kernel_batch(
        samples=args.samples,
        repeats=args.repeats,
        seed=args.seed,
        equivalence_only=args.equivalence_only,
    )
    if args.equivalence_only:
        equivalence = payload["equivalence"]
        print(f"corpus: {payload['corpus']}")  # type: ignore[index]
        print(f"equivalence: {equivalence}")
        print("bit-identity holds across backends")
        return 0
    write_bench_json(args.out, payload)
    for name, data in payload["modes"].items():  # type: ignore[union-attr]
        print(f"{name:>16}: {data['wall_seconds_min']:.5f}s min")
    for name, ratio in payload[  # type: ignore[union-attr]
        "speedups_vs_serial_cold"
    ].items():
        print(f"{name:>16}: {ratio:.3f}x vs serial-cold")
    contract = payload["contract"]
    print(f"contract: {contract}")
    if not contract["speedup_ok"]:  # type: ignore[index]
        print("CONTRACT VIOLATED: kernel-numpy below the minimum speedup")
        return 1
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
