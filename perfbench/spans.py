"""In-memory span recorder and the call wrappers of the traced run.

A :class:`Tracer` patches a layer's public function where its caller
looks it up (``module.name`` or ``Class.method``) with a wrapper that
records one span per call: name, start, end and the enclosing span.
Spans live in flat arrays until :meth:`Tracer.dump` writes them out; the
per-name aggregates (calls, busy time, self time) are updated as spans
close.

``busy_s`` is the summed wall time inside the wrapped call; ``self_s``
is ``busy_s`` minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_idx = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # Open spans: [span index, summed child duration].
        self._stack: List[list] = []
        # name -> [calls, busy_s, self_s]
        self.agg: Dict[str, list] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = [0, 0.0, 0.0]
        return idx

    def wrap(self, fn: Callable, name: str) -> Callable:
        """*fn* with one span per call."""
        name_id = self._name_id(name)
        agg = self.agg[name]
        stack = self._stack
        name_idx, parent = self.name_idx, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_idx.append(name_id)
            parent.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced twin until :meth:`restore`.

        On a class only a method the class defines itself is patched, so
        each override gets its own wrapper and an inherited method is
        never wrapped twice.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def busy(self, name: str) -> float:
        return float(self.agg.get(name, (0, 0.0, 0.0))[1])

    def self_time(self, name: str) -> float:
        return float(self.agg.get(name, (0, 0.0, 0.0))[2])

    def total_self(self) -> float:
        """Summed self time of every span: the traced share of the wall."""
        return sum(v[2] for v in self.agg.values())

    @property
    def span_count(self) -> int:
        return len(self.start)

    def durations(self, name: str) -> np.ndarray:
        """Every duration recorded under *name*, in call order."""
        if name not in self._ids:
            return np.empty(0)
        mask = np.frombuffer(self.name_idx, dtype=np.int_) == self._ids[name]
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return end[mask] - start[mask]

    def dump(self, path: str) -> None:
        """Write the spans: names as JSON beside columnar ``.npz`` arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".names.json", "w") as fh:
            json.dump(self.names, fh)
        np.savez(
            path + ".npz",
            name=np.frombuffer(self.name_idx, dtype=np.int_),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
