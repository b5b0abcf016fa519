"""Online churn simulation: long-horizon admission under arrival/departure.

The paper evaluates RM-TS one task set at a time against empty
processors; this package models the live system the ROADMAP north star
describes — a cluster where task sets (tenants) arrive, are admitted
via the existing incremental exact RTA, stay for a bounded or
heavy-tailed lifetime, and depart, freeing capacity that is reclaimed
by **incremental re-partitioning**: queued task sets re-admit, and
churn-aware policies migrate at most ``k`` tasks per event, every
migration re-verified by RTA.

Layout:

* :mod:`repro.cluster.events` — :class:`ChurnConfig`, deterministic
  Poisson / trace-driven event timelines, tenant task-set generation,
  and the content hash behind the ``churn:<sha256>`` store namespace;
* :mod:`repro.cluster.state` — cluster-wide task identity (RM priority
  across tenants) and the live :class:`ClusterState` over persistent
  :class:`~repro.core.partition.ProcessorState`;
* :mod:`repro.cluster.policies` — the pluggable admission policies:
  incremental fit variants, churn-aware variants (best-fit-on-rejoin,
  defragmenting compaction) and ``repart:<name>`` wrappers over every
  entry of :data:`repro.analysis.algorithms.PARTITIONERS`;
* :mod:`repro.cluster.simulator` — the discrete-event loop, SLO
  metrics, store journaling and resume;
* :mod:`repro.cluster.sweep` — parallel policy×load grids on the
  fork-pool runner.

Determinism is the design contract: identical seed+config produce a
bit-identical event journal and identical SLO metrics at any ``--jobs``
level, because every random stream derives from
:func:`repro.runner.cell_rng` and every float accumulation happens in a
fixed order.
"""

from repro.cluster.events import (
    ChurnConfig,
    ChurnEvent,
    build_event_timeline,
    churn_config_key,
    tenant_taskset,
)
from repro.cluster.policies import CHURN_POLICIES, ChurnPolicy, make_policy
from repro.cluster.simulator import (
    ChurnMetrics,
    ChurnResult,
    simulate_churn,
)
from repro.cluster.state import ClusterState, cluster_tasks, decode_tid
from repro.cluster.sweep import run_churn_grid

__all__ = [
    "ChurnConfig",
    "ChurnEvent",
    "ChurnMetrics",
    "ChurnResult",
    "CHURN_POLICIES",
    "ChurnPolicy",
    "ClusterState",
    "build_event_timeline",
    "churn_config_key",
    "cluster_tasks",
    "decode_tid",
    "make_policy",
    "run_churn_grid",
    "simulate_churn",
    "tenant_taskset",
]
