"""The standard algorithm menu used across experiments.

Maps short names to :data:`~repro.analysis.acceptance.AcceptanceTest`
callables so every experiment (and user script) refers to algorithms
consistently.  Each callable returns "partitioning succeeded" — which by
Lemma 4 is "schedulable" for the semi-partitioned algorithms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Union

from repro.core.bounds import ParametricUtilizationBound
from repro.core.baselines.edf import partition_edf
from repro.core.baselines.edf_split import partition_edf_split
from repro.core.baselines.global_rm import rm_us_schedulable
from repro.core.baselines.partitioned import FitHeuristic, partition_no_split
from repro.core.baselines.spa import partition_spa1, partition_spa2
from repro.core.partition import PartitionResult
from repro.core.rmts import partition_rmts
from repro.core.rmts_light import partition_rmts_light
from repro.core.task import TaskSet

if TYPE_CHECKING:
    # Type-only: acceptance pulls in the sweep machinery (and NumPy),
    # which the admission service has no use for.
    from repro.analysis.acceptance import AcceptanceTest

__all__ = [
    "PARTITIONERS",
    "standard_algorithms",
    "rmts_test",
    "rmts_light_test",
]

#: A partitioner takes ``(taskset, processors)`` and returns a
#: :class:`~repro.core.partition.PartitionResult`.
Partitioner = Callable[[TaskSet, int], PartitionResult]

#: Short-name registry of every partitioning algorithm, shared by the CLI
#: (``python -m repro partition --algorithm``) and the admission-control
#: service (``POST /v1/admit {"algorithm": ...}``) so both speak the same
#: vocabulary.
PARTITIONERS: Dict[str, Partitioner] = {
    "rmts": lambda ts, m: partition_rmts(ts, m),
    "rmts-star": lambda ts, m: partition_rmts(ts, m, dedicate_over_bound=False),
    "rmts-light": lambda ts, m: partition_rmts_light(ts, m),
    "spa1": partition_spa1,
    "spa2": partition_spa2,
    "p-rm": lambda ts, m: partition_no_split(ts, m),
    "p-edf": lambda ts, m: partition_edf(ts, m),
    "edf-ws": lambda ts, m: partition_edf_split(ts, m),
}


def rmts_test(
    bound: Union[ParametricUtilizationBound, float, None] = None,
    **kwargs,
) -> AcceptanceTest:
    """RM-TS acceptance test parameterized by the D-PUB (and any
    :func:`repro.core.rmts.partition_rmts` keyword)."""

    def test(taskset, processors):
        return partition_rmts(taskset, processors, bound=bound, **kwargs).success

    return test


def rmts_light_test(**kwargs) -> AcceptanceTest:
    """RM-TS/light acceptance test."""

    def test(taskset, processors):
        return partition_rmts_light(taskset, processors, **kwargs).success

    return test


def standard_algorithms(
    bound: Union[ParametricUtilizationBound, float, None] = None,
    *,
    include_light: bool = False,
    include_global: bool = False,
) -> Dict[str, AcceptanceTest]:
    """The comparison menu of the acceptance experiments.

    Always includes RM-TS (RTA admission), SPA2 (the [16] baseline) and
    strict partitioned RM with first-fit decreasing + exact RTA.
    """
    algorithms: Dict[str, AcceptanceTest] = {
        "RM-TS": rmts_test(bound),
        "SPA2": lambda ts, m: partition_spa2(ts, m).success,
        "P-RM-FFD": lambda ts, m: partition_no_split(
            ts, m, heuristic=FitHeuristic.FIRST_FIT
        ).success,
    }
    if include_light:
        algorithms["RM-TS/light"] = rmts_light_test()
        algorithms["SPA1"] = lambda ts, m: partition_spa1(ts, m).success
    if include_global:
        algorithms["RM-US(test)"] = rm_us_schedulable
    return algorithms
