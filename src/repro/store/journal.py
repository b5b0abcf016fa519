"""The batch journal: resumable, content-addressed worker results.

An acceptance-sweep cell, a frontier probe and an adversarial candidate
are each a pure function of their run's configuration and the item's
coordinates: every item seeds its own RNG stream (see
:func:`repro.runner.cell_rng`), so its result does not depend on which
process computes it, when, or in which batch.  :class:`Journal`
exploits that for all three: it fans a batch of items out over
:func:`repro.runner.chunked_map`, writes the results into one
:class:`~repro.store.backend.ResultStore` namespace (named by a
:func:`repro._util.keys.content_key` of the configuration) and, on a
rerun, serves the finished items from the store instead of recomputing
them.  A journaled row and a recomputed one are the same bytes, which
is what makes resumed runs bit-identical to uninterrupted ones.

A budget of new items simulates a mid-run kill at a deterministic
point: hitting it raises :class:`BudgetExhausted` *after* the journal
write, so a later run picks up exactly where this one stopped.  The
churn simulator, which journals one event at a time rather than in
batches, raises the same error for its event budget.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner import chunked_map
from repro.store.backend import ResultStore

__all__ = ["BudgetExhausted", "Journal"]


class BudgetExhausted(RuntimeError):
    """Raised when a run hits its budget of new work mid-run.

    ``completed`` of ``total`` items were journaled when it stopped;
    everything journaled is durable, and rerunning the same
    configuration against the same store continues from there.
    """

    def __init__(self, message: str, *, completed: int, total: int) -> None:
        super().__init__(message)
        self.completed = completed
        self.total = total


class Journal:
    """Content-addressed, resumable cache of worker results.

    *worker* computes one item's row, ``worker(payload, item)``, and must
    return a JSON list of plain numbers and strings of length *width*;
    ``key_fn(*item)`` names the item inside *namespace*.  Without a
    *store* the journal is a plain in-memory memo (it still dedups items
    a run requests twice).  With a store, every computed batch is
    written through ``put_many`` before :meth:`evaluate` returns, and
    unless ``resume=False`` construction preloads the namespace.  A
    stored row of another width is not trusted: it is recomputed.
    *budget* bounds how many new items this journal may compute.
    """

    def __init__(
        self,
        store: Optional[ResultStore],
        namespace: str,
        *,
        worker: Callable[[Any, Any], List[Any]],
        key_fn: Callable[..., str],
        width: int,
        budget: Optional[int] = None,
        resume: bool = True,
    ) -> None:
        self._store = store
        self._namespace = namespace
        self._worker = worker
        self._key_fn = key_fn
        self._budget = budget
        self._cache: Dict[str, List[Any]] = {}
        if store is not None and resume:
            for key, value in store.get_namespace(namespace).items():
                if isinstance(value, list) and len(value) == width:
                    self._cache[key] = value
        #: Items served from the journal (durable rows or the memo).
        self.resumed = 0
        #: Items computed (and journaled) by this journal instance.
        self.computed = 0

    @property
    def journaled(self) -> int:
        """Number of item results currently known to this journal."""
        return len(self._cache)

    def evaluate(
        self, items: Sequence[Tuple], payload: Any, *, jobs: int = 1
    ) -> List[List[Any]]:
        """Rows for *items* in order, computing only the missing ones.

        Bit-identical at any ``jobs`` level.  Raises
        :class:`BudgetExhausted` when the budget cuts the batch short;
        everything computed up to the budget is journaled first.
        """
        keys = [self._key_fn(*item) for item in items]
        pending = [
            (item, key)
            for item, key in zip(items, keys)
            if key not in self._cache
        ]
        self.resumed += len(items) - len(pending)

        interrupted = False
        if pending and self._budget is not None:
            remaining = self._budget - self.computed
            if remaining < len(pending):
                pending = pending[: max(0, remaining)]
                interrupted = True
        if pending:
            rows = chunked_map(
                self._worker,
                [item for item, _key in pending],
                payload=payload,
                jobs=jobs,
            )
            if self._store is not None:
                self._store.put_many(
                    self._namespace,
                    {key: row for (_item, key), row in zip(pending, rows)},
                )
            for (_item, key), row in zip(pending, rows):
                self._cache[key] = list(row)
            self.computed += len(pending)
        if interrupted:
            known = sum(1 for key in keys if key in self._cache)
            raise BudgetExhausted(
                f"stopped after {self.computed} new results "
                f"({known}/{len(items)} of the requested batch journaled); "
                "rerun the same configuration against the same store to "
                "continue",
                completed=known,
                total=len(items),
            )
        return [self._cache[key] for key in keys]
