"""Persistent content-addressed result store and the batch journal.

The durable layer under the analysis engine (see ``docs/storage.md``).
It holds no analysis code: importing it loads nothing of
:mod:`repro.analysis`.

* :class:`~repro.store.backend.ResultStore` — schema-versioned,
  checksummed key/value store on stdlib ``sqlite3`` in WAL mode, with
  insert-or-get writes, corruption quarantine, and TTL/GC compaction;
* :class:`~repro.store.tiered.TieredCache` — LRU front + sqlite back,
  giving ``python -m repro serve --store PATH`` a cache that survives
  restarts;
* :class:`~repro.store.journal.Journal` — the one batch journal:
  acceptance sweeps (``acceptance_sweep(..., store=...)``), frontier
  and adversarial searches write their results through it and resume
  bit-identically; :class:`~repro.store.journal.BudgetExhausted` is the
  one budget error of journaled sweeps, searches and churn runs;
* :mod:`~repro.store.provenance` — artifact stamps (code version, config
  hash, seed, counter snapshot) audited by ``python -m repro store
  verify``.
"""

from repro.store.backend import ResultStore, StoreStats, row_checksum
from repro.store.journal import BudgetExhausted, Journal
from repro.store.provenance import (
    config_hash,
    provenance_record,
    source_code_version,
    stamp_payload,
    verify_artifact,
    verify_artifacts_dir,
)
from repro.store.tiered import TieredCache

__all__ = [
    "ResultStore",
    "StoreStats",
    "row_checksum",
    "BudgetExhausted",
    "Journal",
    "TieredCache",
    "config_hash",
    "provenance_record",
    "source_code_version",
    "stamp_payload",
    "verify_artifact",
    "verify_artifacts_dir",
]
