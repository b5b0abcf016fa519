"""Process-pool execution engine for experiment sweeps.

Design constraints, in order of priority:

1. **Bit-identical results at any ``jobs`` level.**  Work items carry
   their own seeds (see :func:`cell_rng`), results are reassembled in
   submission order, and reductions happen only in the parent — so the
   curves a sweep produces cannot depend on scheduling.
2. **Closures must work.**  Acceptance tests are closures over bound
   objects and keyword arguments, which ``pickle`` refuses.  The payload
   therefore never crosses the process boundary by pickling: it is
   stashed in a module global *before* the pool is created and reaches
   the workers by ``fork`` inheritance.  Only the item list (plain
   numbers) and the worker function (pickled by qualified name) are
   transferred.
3. **Graceful degradation.**  ``jobs=1``, a platform without ``fork``,
   or a pool that breaks mid-run all fall back to plain in-process
   iteration — same results, no parallelism.

Task sets are constructed *inside* the workers from the per-cell seeds;
they never cross process boundaries either, which keeps IPC traffic to a
few bytes per cell.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.perf.telemetry import COUNTERS

if TYPE_CHECKING:
    import numpy as np

__all__ = ["cell_rng", "chunked_map", "jobs_arg", "resolve_jobs"]

#: Work payload inherited by forked workers.  Set immediately before the
#: pool is created, cleared right after the map completes; workers read it
#: through :func:`_worker_chunk`.  Not thread-safe — sweeps are launched
#: from one thread, and nested pools are pointless (fork bombs), so a
#: plain global is the honest data structure.
_PAYLOAD: Any = None


def cell_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic RNG for one experiment cell.

    ``cell_rng(seed, level_idx, sample_idx)`` yields a stream that is a
    pure function of its arguments — independent streams for distinct
    keys, identical streams for identical keys — via NumPy's
    ``SeedSequence`` spawn-key mechanism.  This is what makes a sweep's
    random workload independent of chunking, worker count, and execution
    order.  NumPy is imported here, not at module load: the admission
    path uses the pool but never draws random numbers.
    """
    import numpy as np

    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=tuple(key))
    )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` style argument to a concrete worker count.

    ``None`` or ``0`` mean "all available cores"; positive values are
    taken literally (oversubscription is allowed — useful for testing the
    pool plumbing on small machines).
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def jobs_arg(value: str) -> int:
    """``argparse`` type for ``--jobs`` flags: clean error instead of a
    traceback from :func:`resolve_jobs` deep inside a sweep."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {value!r}"
        ) from None
    if jobs < 0:
        raise argparse.ArgumentTypeError("jobs must be >= 0 (0 = all cores)")
    return jobs


def _worker_chunk(
    func: Callable[[Any, Any], Any], index: int, items: Sequence[Any]
) -> Tuple[int, List[Any], Dict[str, int]]:
    """Evaluate one chunk in a worker; return results plus counter deltas.

    The forked worker inherits the parent's counter values, so only the
    delta accumulated here is meaningful — the parent merges the deltas
    so telemetry totals stay exact at any ``jobs`` level.
    """
    before = COUNTERS.snapshot()
    out = [func(_PAYLOAD, item) for item in items]
    return index, out, COUNTERS.delta_since(before)


def _run_serial(
    func: Callable[[Any, Any], Any], payload: Any, items: Sequence[Any]
) -> List[Any]:
    return [func(payload, item) for item in items]


def chunked_map(
    func: Callable[[Any, Any], Any],
    items: Iterable[Any],
    *,
    payload: Any = None,
    jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """Order-preserving ``[func(payload, item) for item in items]``.

    Parameters
    ----------
    func:
        A **module-level** function (it is pickled by name) taking
        ``(payload, item)``.  Each call must depend only on its arguments
        — that is what makes the parallel path bit-identical to serial.
    items:
        Work items; must be picklable (keep them to plain indices/floats
        and construct heavy objects inside *func* from per-cell seeds).
    payload:
        Arbitrary shared state, closures included; reaches workers by
        fork inheritance, never by pickling.
    jobs:
        ``<=1`` runs in-process; larger values fan out over a fork-based
        process pool.  ``None``/``0`` means all cores.
    chunksize:
        Items per dispatched chunk; default splits the work into about
        four chunks per worker to amortize IPC without starving the pool.

    Falls back to in-process execution — producing the identical result —
    when ``fork`` is unavailable, the pool cannot be created, or the pool
    dies mid-run.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return _run_serial(func, payload, items)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork (not our CI, but possible)
        return _run_serial(func, payload, items)
    if chunksize is None:
        chunksize = max(1, -(-len(items) // (jobs * 4)))
    chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]

    global _PAYLOAD
    _PAYLOAD = payload  # must be visible before workers fork
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)), mp_context=ctx
        ) as pool:
            futures = [
                pool.submit(_worker_chunk, func, i, chunk)
                for i, chunk in enumerate(chunks)
            ]
            parts: List[Optional[List[Any]]] = [None] * len(chunks)
            deltas: List[Dict[str, int]] = []
            for future in futures:
                index, out, delta = future.result()
                parts[index] = out
                deltas.append(delta)
        # Merge only after every chunk succeeded, so a fallback rerun
        # cannot double-count the completed chunks' events.
        for delta in deltas:
            COUNTERS.merge(delta)
        return [result for part in parts for result in part]
    except (BrokenProcessPool, PicklingError, OSError):
        return _run_serial(func, payload, items)
    finally:
        _PAYLOAD = None
