"""Replayable witness artifacts for adversarial search results.

A *witness* is one concrete task set an algorithm rejects at a
normalized utilization above its proven bound cap, stored with enough
coordinates to reproduce it two independent ways:

* **from the tasks**: the scaled ``(C_i, T_i)`` pairs are embedded in
  the artifact, so the rejection can be re-checked directly;
* **from the seed**: the generator parameters and the candidate's
  ``(seed, round, candidate)`` RNG coordinates are embedded too, so the
  *same* tasks can be regrown from scratch — :func:`replay_witness`
  checks the regrown set is bit-identical to the stored one before
  trusting either.

Artifacts are written through
:func:`repro.perf.telemetry.write_bench_json`, which stamps the standard
provenance block (code version, config hash, counter snapshot), so a
committed witness passes ``python -m repro store verify`` like every
other benchmark artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from typing import Dict, List

from repro.core.bounds import rmts_bound_cap
from repro.core.task import TaskSet
from repro.perf.telemetry import COUNTERS, write_bench_json
from repro.runner import cell_rng, chunked_map
from repro.search.adversarial import (
    MARGIN,
    MAX_UTIL,
    RTA_CALLS,
    RTA_ITERS,
    TMAX,
    U_REJECT,
    AdversarialResult,
    BOUND,
    CAP,
)
from repro.search.frontier import acceptance_test_for
from repro.taskgen.generators import TaskSetGenerator

__all__ = ["save_witness", "load_witness", "replay_witness", "witness_record"]

#: Relative cost-scale step between the extra replay probes (see
#: :func:`replay_witness`).
REPLAY_SCALE_STEP = 1e-3
#: Number of scales probed per replay (offset 0 is the witness itself).
REPLAY_PROBES = 4


def _regrow_taskset(record: Dict[str, object]) -> TaskSet:
    """Regrow the witness task set from its RNG coordinates."""
    generator = TaskSetGenerator(**record["generator"])
    candidate = replace(
        generator,
        max_util=float(record["max_util"]),
        tmax=float(record["tmax"]),
    )
    rng = cell_rng(
        int(record["seed"]), int(record["round"]), int(record["candidate"])
    )
    shape = candidate.generate(
        u_norm=float(record["base_u_norm"]),
        processors=int(record["processors"]),
        seed=rng,
    )
    base_norm = shape.normalized_utilization(int(record["processors"]))
    return shape.scaled_costs(float(record["u_norm"]) / base_norm)


def witness_record(result: AdversarialResult) -> Dict[str, object]:
    """The plain-JSON witness for *result*'s best verified rejection."""
    if result.best is None or result.best_position is None:
        raise ValueError("adversarial search found no verified rejection")
    best = result.best
    config = result.config
    record: Dict[str, object] = {
        "kind": "adversarial_witness",
        "algorithm": config.algorithm,
        "processors": config.processors,
        "seed": config.seed,
        "round": result.best_position[0],
        "candidate": result.best_position[1],
        "generator": asdict(config.generator),
        "max_util": best[MAX_UTIL],
        "tmax": best[TMAX],
        "base_u_norm": config.base_u_norm,
        "u_norm": best[U_REJECT],
        "bound": best[BOUND],
        "cap": best[CAP],
        "margin": best[MARGIN],
        "counters": {
            "rta_calls": best[RTA_CALLS],
            "rta_iterations": best[RTA_ITERS],
        },
    }
    record["tasks"] = _regrow_taskset(record).to_dicts()
    return record


def save_witness(result: AdversarialResult, path: str) -> Dict[str, object]:
    """Write *result*'s best rejection as a provenance-stamped artifact."""
    record = witness_record(result)
    payload = dict(record)
    payload["config"] = {
        "algorithm": record["algorithm"],
        "processors": record["processors"],
        "seed": record["seed"],
        "generator": record["generator"],
    }
    write_bench_json(path, payload)
    COUNTERS.se_witnesses += 1
    return record


def load_witness(path: str) -> Dict[str, object]:
    """Read a witness artifact (the provenance block is left alone)."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("kind") != "adversarial_witness":
        raise ValueError(f"{path} is not an adversarial witness artifact")
    return record


def _replay_cell(payload, offset: int) -> List[int]:
    """Worker: one acceptance probe at the witness scale plus *offset*.

    Offsets above 0 probe slightly larger cost scales (the rejection
    region), giving the replay several independent cells so the
    ``jobs``-invariance of a replay is a meaningful check and not a
    single-item serial fallback.  An offset that would push a task
    utilization above 1 reports ``[-1, 0, 0]`` (skipped).
    """
    test, rows, processors = payload
    taskset = TaskSet.from_dicts(rows)
    factor = 1.0 + offset * REPLAY_SCALE_STEP
    try:
        scaled = taskset.scaled_costs(factor) if offset else taskset
    except ValueError:
        return [-1, 0, 0]
    before = COUNTERS.snapshot()
    accepted = bool(test(scaled, processors))
    delta = COUNTERS.delta_since(before)
    return [
        int(accepted),
        int(delta["rta_calls"]),
        int(delta["rta_iterations"]),
    ]


def replay_witness(
    record: Dict[str, object], *, jobs: int = 1
) -> Dict[str, object]:
    """Re-verify a witness from its stored coordinates.

    Checks, in order: the regrown task set matches the stored tasks
    bit-for-bit; the algorithm still rejects the set at the stored
    ``u_norm`` with exactly the stored analysis-cost counters; and the
    rejection sits strictly above the ``2Theta/(1+Theta)`` cap for the
    set's task count.  ``confirmed`` is the conjunction.
    """
    processors = int(record["processors"])
    stored = TaskSet.from_dicts(record["tasks"])
    regrown = _regrow_taskset(record)
    stored_pairs = [(t["cost"], t["period"]) for t in record["tasks"]]
    regrown_pairs = [(t["cost"], t["period"]) for t in regrown.to_dicts()]
    tasks_match = regrown_pairs == stored_pairs

    test = acceptance_test_for(str(record["algorithm"]))
    probes = chunked_map(
        _replay_cell,
        range(REPLAY_PROBES),
        payload=(test, record["tasks"], processors),
        jobs=jobs,
    )
    rejected = probes[0][0] == 0
    counters = record["counters"]
    counters_match = probes[0][1] == int(counters["rta_calls"]) and probes[0][
        2
    ] == int(counters["rta_iterations"])
    cap = rmts_bound_cap(len(stored))
    above_cap = float(record["u_norm"]) > cap
    return {
        "tasks_match": tasks_match,
        "rejected": rejected,
        "counters_match": counters_match,
        "above_cap": above_cap,
        "confirmed": tasks_match and rejected and counters_match and above_cap,
        "cap": cap,
        "u_norm": record["u_norm"],
        "margin": record["margin"],
        "probes": [list(row) for row in probes],
    }
