"""Durable content-addressed result store on stdlib ``sqlite3``.

One :class:`ResultStore` file holds immutable analysis results keyed by
the canonical SHA-256 of their request (see
:func:`repro.service.cache.admit_cache_key`), partitioned into
*namespaces* (``"admit"`` responses, ``"sweep:<config>"`` checkpoint
cells, ...).  Design rules, in order:

1. **Results are facts.**  Writes are insert-or-get: the first payload
   stored under a key wins and every later write of the same key returns
   the stored payload, so concurrent writers converge on one byte-exact
   answer (analysis results are pure functions of their key, so a losing
   writer lost nothing).  The one exception is :meth:`ResultStore.put_many`,
   the journal's batch write, which replaces: a journal writes only keys
   it holds no trusted row for, so its recomputed row overwrites a
   distrusted one, and a valid row it replaces is the same bytes.
2. **Corruption is detected, never served.**  Every row carries a
   SHA-256 over ``namespace + key + payload``; a mismatch on read drops
   the row and reports a miss.  A file sqlite itself rejects (or that
   fails ``PRAGMA quick_check`` at open) is *quarantined* — renamed to
   ``<path>.corrupt-<n>`` — and a fresh store is rebuilt in its place;
   losing a cache must never take the service down.
3. **Crash consistency comes from WAL.**  The database runs in
   write-ahead-log mode with ``synchronous=NORMAL``: a writer killed
   mid-transaction loses at most its uncommitted rows, and the next open
   rolls the log forward — exercised by the SIGKILL test in
   ``tests/store/test_crash.py``.
4. **Old schemas invalidate cleanly.**  Rows are stamped with the
   serialization schema version
   (:data:`repro.core.serialization.SCHEMA_VERSION`); reads of rows
   written under a different version delete them and miss, so a code
   upgrade can never deserialize a stale payload shape.  A store file
   whose *own* schema version is unknown is quarantined wholesale.

Every event is mirrored into ``st_*`` counters in
:data:`repro.perf.telemetry.COUNTERS`, so ``/metrics`` and bench
artifacts can report durable-tier hit rates next to the in-memory ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.serialization import SCHEMA_VERSION as PAYLOAD_SCHEMA_VERSION
from repro.perf.telemetry import COUNTERS

__all__ = ["ResultStore", "StoreStats", "row_checksum"]

#: Version of the store's *own* sqlite schema (tables/columns), independent
#: of the payload schema version stamped on each row.
STORE_SCHEMA_VERSION = 1

_CREATE_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    namespace      TEXT NOT NULL,
    key            TEXT NOT NULL,
    payload        TEXT NOT NULL,
    checksum       TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    created_at     REAL NOT NULL,
    last_access    REAL NOT NULL,
    hits           INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (namespace, key)
);
CREATE INDEX IF NOT EXISTS idx_entries_last_access
    ON entries (last_access);
"""


def row_checksum(namespace: str, key: str, payload: str) -> str:
    """Per-row integrity checksum.

    The namespace and key participate in the preimage so a payload copied
    onto another row (or a row re-keyed by a corrupted index) fails
    verification, not just bit rot inside the payload text.
    """
    h = hashlib.sha256()
    h.update(namespace.encode("utf-8"))
    h.update(b"\x00")
    h.update(key.encode("utf-8"))
    h.update(b"\x00")
    h.update(payload.encode("utf-8"))
    return h.hexdigest()


class StoreStats:
    """Snapshot of one store file's contents and health."""

    def __init__(self, path: str, total: int, by_namespace: Dict[str, int],
                 file_bytes: int, quarantined: int) -> None:
        self.path = path
        self.total = total
        self.by_namespace = by_namespace
        self.file_bytes = file_bytes
        self.quarantined = quarantined

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "entries": self.total,
            "by_namespace": dict(sorted(self.by_namespace.items())),
            "file_bytes": self.file_bytes,
            "quarantined_files": self.quarantined,
            "store_schema_version": STORE_SCHEMA_VERSION,
            "payload_schema_version": PAYLOAD_SCHEMA_VERSION,
        }


class ResultStore:
    """Schema-versioned, checksummed key/value store (see module docs).

    Values are JSON-compatible objects; they are stored as compact JSON
    text and returned decoded.  ``get``/``put`` are safe to call from any
    thread (one connection guarded by a lock — sqlite serializes writers
    anyway, and the service touches the store from both the event loop
    and executor threads).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self.quarantined_files = 0
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._conn = self._open_verified()

    # -- lifecycle ---------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_CREATE_SQL)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'store_schema_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("store_schema_version", str(STORE_SCHEMA_VERSION)),
            )
            conn.commit()
        elif row[0] != str(STORE_SCHEMA_VERSION):
            conn.close()
            raise sqlite3.DatabaseError(
                f"store schema version {row[0]} != {STORE_SCHEMA_VERSION}"
            )
        return conn

    def _open_verified(self) -> sqlite3.Connection:
        """Open the file; quarantine and rebuild if sqlite rejects it."""
        try:
            conn = self._connect()
            check = conn.execute("PRAGMA quick_check").fetchone()
            if check is None or check[0] != "ok":
                conn.close()
                raise sqlite3.DatabaseError(
                    f"quick_check failed: {check[0] if check else 'no result'}"
                )
            return conn
        except sqlite3.DatabaseError:
            self._quarantine_file()
            return self._connect()

    def _quarantine_file(self) -> None:
        """Move the (unreadable) file aside so a fresh store can be built."""
        if os.path.exists(self.path):
            n = 0
            while os.path.exists(f"{self.path}.corrupt-{n}"):
                n += 1
            os.replace(self.path, f"{self.path}.corrupt-{n}")
            # WAL sidecar files belong to the quarantined database, not the
            # rebuilt one — sqlite would otherwise try to roll a foreign
            # log into the fresh file.
            for suffix in ("-wal", "-shm"):
                sidecar = self.path + suffix
                if os.path.exists(sidecar):
                    os.replace(sidecar, f"{self.path}.corrupt-{n}{suffix}")
        self.quarantined_files += 1
        COUNTERS.st_quarantines += 1

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- core key/value API ------------------------------------------------

    def get(self, namespace: str, key: str) -> Tuple[bool, Optional[object]]:
        """Return ``(found, decoded_value)``; never serves a bad row.

        A row failing its checksum, or stamped with a different payload
        schema version, is deleted and reported as a miss — the caller
        recomputes and re-inserts a fresh row.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, checksum, schema_version FROM entries "
                "WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
            if row is None:
                COUNTERS.st_misses += 1
                return False, None
            payload, checksum, schema_version = row
            if checksum != row_checksum(namespace, key, payload):
                self._delete(namespace, key)
                COUNTERS.st_corrupt_rows += 1
                COUNTERS.st_misses += 1
                return False, None
            if schema_version != PAYLOAD_SCHEMA_VERSION:
                self._delete(namespace, key)
                COUNTERS.st_schema_evictions += 1
                COUNTERS.st_misses += 1
                return False, None
            self._conn.execute(
                "UPDATE entries SET last_access = ?, hits = hits + 1 "
                "WHERE namespace = ? AND key = ?",
                (time.time(), namespace, key),
            )
            self._conn.commit()
            COUNTERS.st_hits += 1
            return True, json.loads(payload)

    def put(self, namespace: str, key: str, value: object) -> object:
        """Insert-or-get: store *value* unless the key exists; return the
        stored value (the first writer's, byte-exact) either way."""
        payload = json.dumps(value, separators=(",", ":"))
        now = time.time()
        with self._lock:
            COUNTERS.st_puts += 1
            cur = self._conn.execute(
                "INSERT OR IGNORE INTO entries (namespace, key, payload, "
                "checksum, schema_version, created_at, last_access, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
                (
                    namespace, key, payload,
                    row_checksum(namespace, key, payload),
                    PAYLOAD_SCHEMA_VERSION, now, now,
                ),
            )
            self._conn.commit()
            if cur.rowcount:
                return value
            row = self._conn.execute(
                "SELECT payload FROM entries WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
            # The only way the insert was ignored is an existing row, but a
            # concurrent GC may have removed it in between; fall back to
            # the value we just tried to write.
            return json.loads(row[0]) if row is not None else value

    def put_many(
        self, namespace: str, items: Dict[str, object]
    ) -> None:
        """Batch write (one transaction — the journal hot path).

        A row already stored under a key is replaced: the journal writes
        only keys it holds no trusted row for, so a distrusted row (say,
        of the wrong width) gets its recomputed value.
        """
        now = time.time()
        rows = []
        for key, value in items.items():
            payload = json.dumps(value, separators=(",", ":"))
            rows.append((
                namespace, key, payload,
                row_checksum(namespace, key, payload),
                PAYLOAD_SCHEMA_VERSION, now, now,
            ))
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO entries (namespace, key, payload, "
                "checksum, schema_version, created_at, last_access, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
                rows,
            )
            self._conn.commit()
            COUNTERS.st_puts += len(rows)

    def get_namespace(self, namespace: str) -> Dict[str, object]:
        """All valid rows of one namespace, decoded (checkpoint loading).

        Rows failing their checksum or schema stamp are dropped exactly as
        in :meth:`get`; they simply don't appear in the result.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, payload, checksum, schema_version FROM entries "
                "WHERE namespace = ?",
                (namespace,),
            ).fetchall()
            out: Dict[str, object] = {}
            bad: List[str] = []
            for key, payload, checksum, schema_version in rows:
                if checksum != row_checksum(namespace, key, payload):
                    bad.append(key)
                    COUNTERS.st_corrupt_rows += 1
                    continue
                if schema_version != PAYLOAD_SCHEMA_VERSION:
                    bad.append(key)
                    COUNTERS.st_schema_evictions += 1
                    continue
                out[key] = json.loads(payload)
            for key in bad:
                self._delete(namespace, key)
            if bad:
                self._conn.commit()
            COUNTERS.st_hits += len(out)
            return out

    def _delete(self, namespace: str, key: str) -> None:
        self._conn.execute(
            "DELETE FROM entries WHERE namespace = ? AND key = ?",
            (namespace, key),
        )
        self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            )

    # -- maintenance -------------------------------------------------------

    def verify(self) -> List[Tuple[str, str]]:
        """Re-checksum every row; drop and report the bad ones.

        Returns ``[(namespace, key), ...]`` for each row that failed.  The
        store stays usable afterwards — verification repairs by removal.
        """
        bad: List[Tuple[str, str]] = []
        with self._lock:
            rows = self._conn.execute(
                "SELECT namespace, key, payload, checksum FROM entries"
            ).fetchall()
            for namespace, key, payload, checksum in rows:
                if checksum != row_checksum(namespace, key, payload):
                    bad.append((namespace, key))
                    COUNTERS.st_corrupt_rows += 1
                    self._delete(namespace, key)
        return bad

    def gc(
        self,
        *,
        ttl_seconds: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> Dict[str, int]:
        """TTL + capacity compaction; returns removal counts.

        Rows whose ``last_access`` is older than *ttl_seconds* go first;
        then, if more than *max_entries* remain, the least recently used
        surplus goes too.  Finishes with ``VACUUM`` so the file shrinks.
        """
        removed_ttl = removed_cap = 0
        with self._lock:
            if ttl_seconds is not None:
                cur = self._conn.execute(
                    "DELETE FROM entries WHERE last_access < ?",
                    (time.time() - float(ttl_seconds),),
                )
                removed_ttl = cur.rowcount
            if max_entries is not None:
                cur = self._conn.execute(
                    "DELETE FROM entries WHERE (namespace, key) IN ("
                    "  SELECT namespace, key FROM entries "
                    "  ORDER BY last_access DESC LIMIT -1 OFFSET ?)",
                    (int(max_entries),),
                )
                removed_cap = cur.rowcount
            self._conn.commit()
            self._conn.execute("VACUUM")
            COUNTERS.st_gc_removed += removed_ttl + removed_cap
        return {
            "removed_ttl": removed_ttl,
            "removed_capacity": removed_cap,
            "remaining": len(self),
        }

    def stats(self) -> StoreStats:
        with self._lock:
            total = len(self)
            by_ns = dict(
                self._conn.execute(
                    "SELECT namespace, COUNT(*) FROM entries GROUP BY namespace"
                ).fetchall()
            )
        file_bytes = (
            os.path.getsize(self.path) if os.path.exists(self.path) else 0
        )
        return StoreStats(
            self.path, total, by_ns, file_bytes, self.quarantined_files
        )

    # -- portability -------------------------------------------------------

    def export_jsonl(self) -> Iterator[str]:
        """Yield one JSON line per row, payload kept as its exact text.

        Keeping the payload as the raw stored string (not re-encoded)
        makes export → import → get byte-identical to the original.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT namespace, key, payload, schema_version, created_at "
                "FROM entries ORDER BY namespace, key"
            ).fetchall()
        for namespace, key, payload, schema_version, created_at in rows:
            yield json.dumps(
                {
                    "namespace": namespace,
                    "key": key,
                    "payload": payload,
                    "schema_version": schema_version,
                    "created_at": created_at,
                },
                separators=(",", ":"),
            )

    def import_jsonl(self, lines: Iterator[str]) -> Dict[str, int]:
        """Load rows from :meth:`export_jsonl` output (insert-or-get).

        Rows with a foreign payload schema version are skipped — importing
        them would only create rows every subsequent read invalidates.
        """
        imported = skipped = 0
        now = time.time()
        rows = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("schema_version") != PAYLOAD_SCHEMA_VERSION:
                skipped += 1
                continue
            namespace = str(record["namespace"])
            key = str(record["key"])
            payload = str(record["payload"])
            json.loads(payload)  # refuse rows whose payload is not JSON
            rows.append((
                namespace, key, payload,
                row_checksum(namespace, key, payload),
                PAYLOAD_SCHEMA_VERSION,
                float(record.get("created_at", now)), now,
            ))
            imported += 1
        with self._lock:
            self._conn.executemany(
                "INSERT OR IGNORE INTO entries (namespace, key, payload, "
                "checksum, schema_version, created_at, last_access, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
                rows,
            )
            self._conn.commit()
            COUNTERS.st_puts += len(rows)
        return {"imported": imported, "skipped": skipped}
