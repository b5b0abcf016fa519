"""Content keys: the exact, order-free hash behind every journal namespace.

A sweep, a churn run and a search each journal into a store namespace
named by a SHA-256 over their canonical configuration, so a resumed run
can never mix results from a different configuration.  The canonical
form is JSON with sorted keys and no whitespace, every float encoded
with ``float.hex()`` (exact: ``0.1 + 0.2`` and ``0.3`` get different
keys) and tuples written as lists.  Ints stay ints, so a field must be
coerced to ``float`` before it reaches the key wherever ``10`` and
``10.0`` mean the same configuration.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["content_key"]


def _canonical(value: object) -> object:
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def content_key(kind: str, **fields: object) -> str:
    """SHA-256 hex digest of ``{"kind": kind, **fields}`` in canonical form."""
    blob = json.dumps(
        _canonical({"kind": kind, **fields}),
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
