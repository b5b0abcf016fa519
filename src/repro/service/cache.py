"""Canonical task-set hashing and the LRU result cache.

Admission verdicts are pure functions of ``(task set, m, algorithm)``, so
identical requests can be answered from memory.  The cache key is a SHA-256
over a *canonical* encoding of the task set:

* tasks are keyed in :class:`~repro.core.task.TaskSet` normalized order
  (sorted by period, input order breaking ties) — two requests listing the
  same tasks with distinct periods in different orders hash identically;
* floats are encoded with ``float.hex()`` so the key is exact, not subject
  to repr rounding;
* task names participate only when non-empty (they appear in the
  serialized partition body, so requests differing in names must not share
  a cached response).

Equal-period ties keep their input order because RM priority tie-breaking
depends on it; such permutations conservatively miss rather than risk
returning another ordering's partition.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.task import TaskSet
from repro.perf.telemetry import COUNTERS

__all__ = ["admit_cache_key", "LRUCache"]


def admit_cache_key(taskset: TaskSet, processors: int, algorithm: str,
                    *, kind: str = "admit") -> str:
    """Canonical cache key for an analysis request.

    ``kind`` separates namespaces (``"admit"`` vs ``"bounds"``) so the two
    endpoints never collide on the same task set.
    """
    rows = [
        (
            float(t.cost).hex(),
            float(t.period).hex(),
            t.name if t.name != f"tau{t.tid}" else "",
        )
        for t in taskset
    ]
    blob = json.dumps(
        {"kind": kind, "m": processors, "algorithm": algorithm, "tasks": rows},
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class LRUCache:
    """Bounded mapping with least-recently-used eviction and hit counters.

    The server touches the cache only from its worker threads, several
    at once: ``AdmissionService.answer`` (``get`` then ``put``, also in
    workers the deadline has orphaned), batch planning and the
    ``/metrics`` stats read.  One lock serializes the mapping and the
    counters: without it a ``put`` evicting a key between ``get``'s
    membership test and its ``move_to_end`` raises ``KeyError``.  Hits
    and misses are mirrored into the global perf
    :data:`~repro.perf.telemetry.COUNTERS` for ``/metrics``.
    """

    def __init__(self, capacity: int = 1024, *,
                 mirror_counters: bool = True) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        #: Whether hits/misses/evictions are mirrored into the global
        #: COUNTERS.  The tiered cache front disables this and does its own
        #: accounting — a front-tier eviction is not a cache eviction when
        #: the entry still lives in the durable back tier.
        self.mirror_counters = mirror_counters
        self._data: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> Tuple[bool, Optional[object]]:
        """Return ``(found, value)``; refreshes recency on hit."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                if self.mirror_counters:
                    COUNTERS.svc_cache_hits += 1
                return True, self._data[key]
            self.misses += 1
            if self.mirror_counters:
                COUNTERS.svc_cache_misses += 1
            return False, None

    def put(self, key: str, value: object) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
                if self.mirror_counters:
                    COUNTERS.svc_cache_evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Snapshot for ``/metrics``."""
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 6),
            }
