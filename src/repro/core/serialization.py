"""JSON serialization of partitions.

Lets a partition computed offline (design time) be stored, inspected,
diffed and re-simulated later — the artifact a configuration toolchain
would actually ship to a target.  The format is stable and human-readable:

.. code-block:: json

    {
      "algorithm": "RM-TS[RTA(points)]",
      "scheduler": "fixed",
      "tasks": [{"cost": 2.0, "period": 4.0, "tid": 0, "name": "tau0"}],
      "processors": [
        {"index": 0, "role": "normal", "full": true,
         "pre_assigned_tid": null,
         "subtasks": [{"tid": 0, "cost": 1.5, "deadline": 4.0,
                        "index": 1, "kind": "body"}]}
      ],
      "unassigned_tids": [],
      "info": {...}
    }

Round-tripping preserves everything :func:`repro.sim.engine.simulate_partition`
and :meth:`repro.core.partition.PartitionResult.validate` need.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.partition import PartitionResult, ProcessorRole, ProcessorState
from repro.core.task import Subtask, SubtaskKind, TaskSet

__all__ = [
    "SCHEMA_VERSION",
    "partition_to_dict",
    "partition_from_dict",
    "save_partition",
    "load_partition",
]

#: Version of the serialized payload shape.  Bump on any change to the
#: fields below (or to the response bodies built from them) that an older
#: loader would misread; the result store stamps every row with this value
#: and invalidates rows written under a different one, so durable caches
#: survive code upgrades by recomputing instead of deserializing garbage.
SCHEMA_VERSION = 1


def partition_to_dict(partition: PartitionResult) -> Dict:
    """Serialize a partition to a JSON-compatible dict."""
    return {
        "format": "repro-partition-v1",
        "schema_version": SCHEMA_VERSION,
        "algorithm": partition.algorithm,
        "success": partition.success,
        "scheduler": partition.scheduler,
        "tasks": partition.taskset.to_dicts(),
        "processors": [
            {
                "index": proc.index,
                "role": proc.role.value,
                "full": proc.full,
                "pre_assigned_tid": proc.pre_assigned_tid,
                "subtasks": [
                    {
                        "tid": sub.parent.tid,
                        "cost": sub.cost,
                        "deadline": sub.deadline,
                        "index": sub.index,
                        "kind": sub.kind.value,
                    }
                    for sub in proc.subtasks
                ],
            }
            for proc in partition.processors
        ],
        "unassigned_tids": list(partition.unassigned_tids),
        "info": _jsonable(partition.info),
    }


def _jsonable(obj: object) -> object:
    """Best-effort conversion of info payloads to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


#: Dispatching rules the simulator understands (see
#: :attr:`repro.core.partition.PartitionResult.scheduler`).
KNOWN_SCHEDULERS = ("fixed", "edf")


def partition_from_dict(data: Dict) -> PartitionResult:
    """Inverse of :func:`partition_to_dict`.

    Rejects payloads whose ``"scheduler"`` names a dispatching rule this
    toolkit does not implement — silently loading one would validate and
    simulate the partition under the wrong runtime semantics.
    """
    if data.get("format") != "repro-partition-v1":
        raise ValueError("not a repro partition file (missing format tag)")
    # Payloads written before the schema_version field existed carry the
    # v1 shape, so a missing field means version 1, not "unknown".
    version = data.get("schema_version", 1)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"partition payload schema version {version!r} does not match "
            f"this code's version {SCHEMA_VERSION}; regenerate the payload"
        )
    scheduler = data.get("scheduler", "fixed")
    if scheduler not in KNOWN_SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}: this toolkit implements "
            f"{list(KNOWN_SCHEDULERS)}"
        )
    taskset = TaskSet.from_dicts(data["tasks"])
    by_tid = {t.tid: t for t in taskset}
    processors: List[ProcessorState] = []
    for row in data["processors"]:
        proc = ProcessorState(
            index=int(row["index"]),
            full=bool(row["full"]),
            role=ProcessorRole(row["role"]),
            pre_assigned_tid=row.get("pre_assigned_tid"),
        )
        for piece in row["subtasks"]:
            parent = by_tid[int(piece["tid"])]
            # Built as a subtask first, so a malformed piece fails the load.
            sub = Subtask(
                cost=float(piece["cost"]),
                period=parent.period,
                deadline=float(piece["deadline"]),
                parent=parent,
                index=int(piece["index"]),
                kind=SubtaskKind(piece["kind"]),
            )
            proc.add(parent, sub.cost, sub.deadline, sub.index, sub.kind)
        processors.append(proc)
    info = dict(data.get("info", {}))
    if scheduler != "fixed":
        # The scheduler property reads info; keep the top-level tag
        # authoritative even for hand-written payloads that omit it there.
        info.setdefault("scheduler", scheduler)
    return PartitionResult(
        algorithm=str(data["algorithm"]),
        taskset=taskset,
        processors=processors,
        success=bool(data["success"]),
        unassigned_tids=[int(t) for t in data.get("unassigned_tids", [])],
        info=info,
    )


def save_partition(partition: PartitionResult, path: str) -> None:
    """Write a partition to *path* as pretty-printed JSON."""
    with open(path, "w") as fh:
        json.dump(partition_to_dict(partition), fh, indent=2)
        fh.write("\n")


def load_partition(path: str) -> PartitionResult:
    """Read a partition previously written by :func:`save_partition`."""
    with open(path) as fh:
        return partition_from_dict(json.load(fh))
