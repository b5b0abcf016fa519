"""Pin every ``ChurnMetrics`` value of the E16 churn grid at seed 0.

The grid is the one the benchmark's churn workload runs: 4 processors,
60 tenant arrivals per cell, policies ff-rta, bf-rejoin, compact and
repart:rmts across arrival rates 0.008, 0.014 and 0.018.  The digest is
the SHA-256 of the canonical JSON of the 12 cells'
``ChurnMetrics.as_state()`` (floats by shortest repr), so any change to
a decision, counter or simulated-time accumulator moves it.
"""

import hashlib
import json

import pytest

from repro.cluster.events import ChurnConfig, tenant_pool
from repro.cluster.simulator import simulate_churn
from repro.cluster.sweep import churn_grid_configs

pytestmark = pytest.mark.churn

POLICIES = ("ff-rta", "bf-rejoin", "compact", "repart:rmts")
RATES = (0.008, 0.014, 0.018)

#: Recorded before the churn event path lost its repeated bookkeeping
#: (shared timelines, one-sort unions, bisected buckets); equal to the
#: benchmark manifest's churn ``metrics_digest``.
GRID_DIGEST = "32aeb59b38d910593cd4a747db003273286e6f0ea5b851ecb8cc4db5d6d878fe"


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _grid_states():
    base = ChurnConfig(processors=4, horizon=60, seed=0)
    return [
        simulate_churn(config).metrics.as_state()
        for config in churn_grid_configs(base, POLICIES, RATES)
    ]


def test_grid_metrics_digest_is_pinned():
    tenant_pool.cache_clear()
    assert _digest(_grid_states()) == GRID_DIGEST


def test_warm_pool_gives_the_same_digest():
    # Every cell after the first of a rate reads the shared timeline;
    # a second pass reads only shared draws and timelines.
    tenant_pool.cache_clear()
    _grid_states()
    assert _digest(_grid_states()) == GRID_DIGEST
