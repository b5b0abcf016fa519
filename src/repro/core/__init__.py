"""Core library: the paper's algorithms and the substrates they stand on.

Layout
------
* :mod:`repro.core.task` — L&L task model, subtasks, synthetic deadlines;
* :mod:`repro.core.rta` — exact response-time analysis;
* :mod:`repro.core.bounds` — parametric utilization bounds (D-PUBs);
* :mod:`repro.core.partition` — partitioning framework and validation;
* :mod:`repro.core.maxsplit` — MaxSplit (binary & scheduling-points);
* :mod:`repro.core.admission` — RTA vs utilization-threshold admission;
* :mod:`repro.core.rmts_light` / :mod:`repro.core.rmts` — the paper's
  algorithms;
* :mod:`repro.core.baselines` — SPA1/SPA2, strict partitioned RM, RM-US.
"""

from repro.core.task import Task, TaskSet, Subtask, SubtaskKind, SplitTaskView
from repro.core.rta import response_time, response_times, is_schedulable, RTAResult
from repro.core.bounds import (
    ll_bound,
    light_task_threshold,
    rmts_bound_cap,
    harmonic_chain_count,
    harmonic_chains,
    scaled_periods,
    ParametricUtilizationBound,
    LiuLaylandBound,
    HarmonicChainBound,
    TBound,
    RBound,
    ConstantBound,
    best_bound_value,
    ALL_BOUNDS,
)
from repro.core.partition import (
    PartitionResult,
    PendingPiece,
    ProcessorRole,
    ProcessorState,
)
from repro.core.maxsplit import max_split, max_split_binary, max_split_points
from repro.core.admission import (
    AdmissionPolicy,
    ExactRTAAdmission,
    ThresholdAdmission,
)
from repro.core.rmts_light import partition_rmts_light, is_light_task_set
from repro.core.rmts import partition_rmts, pre_assign_condition, resolve_bound_value
from repro.core.rta_ext import response_time_ext, is_schedulable_with_blocking
from repro.core.resources import (
    CriticalSection,
    ResourceModel,
    pcp_blocking_terms,
    partition_no_split_with_resources,
    random_resource_model,
)
from repro.core.serialization import (
    partition_to_dict,
    partition_from_dict,
    save_partition,
    load_partition,
)

__all__ = [
    "Task",
    "TaskSet",
    "Subtask",
    "SubtaskKind",
    "SplitTaskView",
    "response_time",
    "response_times",
    "is_schedulable",
    "RTAResult",
    "ll_bound",
    "light_task_threshold",
    "rmts_bound_cap",
    "harmonic_chain_count",
    "harmonic_chains",
    "scaled_periods",
    "ParametricUtilizationBound",
    "LiuLaylandBound",
    "HarmonicChainBound",
    "TBound",
    "RBound",
    "ConstantBound",
    "best_bound_value",
    "ALL_BOUNDS",
    "PartitionResult",
    "PendingPiece",
    "ProcessorRole",
    "ProcessorState",
    "max_split",
    "max_split_binary",
    "max_split_points",
    "AdmissionPolicy",
    "ExactRTAAdmission",
    "ThresholdAdmission",
    "partition_rmts_light",
    "is_light_task_set",
    "partition_rmts",
    "pre_assign_condition",
    "resolve_bound_value",
    "response_time_ext",
    "is_schedulable_with_blocking",
    "CriticalSection",
    "ResourceModel",
    "pcp_blocking_terms",
    "partition_no_split_with_resources",
    "random_resource_model",
    "partition_to_dict",
    "partition_from_dict",
    "save_partition",
    "load_partition",
]
