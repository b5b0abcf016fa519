"""Task-set generator configurations combining utilizations and periods.

:class:`TaskSetGenerator` is the one-stop factory the experiment harness
uses: it pairs a utilization model (UUniFast-discard or RandFixedSum, with
an optional per-task cap producing *light* sets) with a period model
(log-uniform / uniform / discrete / harmonic / K-chain), and emits
:class:`repro.core.task.TaskSet` objects at a requested normalized
utilization.

Every generator call takes an explicit seed or Generator so experiment runs
are exactly reproducible; batch generation is provided for sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Union

import numpy as np

from repro._util.validation import check_positive, check_positive_finite
from repro.core.bounds import light_task_threshold
from repro.core.task import TaskSet
from repro.taskgen.uunifast import uunifast_discard
from repro.taskgen.randfixedsum import randfixedsum_utilizations
from repro.taskgen.periods import (
    discrete_periods,
    harmonic_periods,
    k_chain_periods,
    loguniform_periods,
    uniform_periods,
)

__all__ = ["TaskSetGenerator", "make_rng"]


def make_rng(seed: Union[int, np.random.Generator, None]) -> np.random.Generator:
    """Normalize a seed-or-generator argument into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class TaskSetGenerator:
    """Reproducible random task-set factory.

    Parameters
    ----------
    n:
        Number of tasks per set.
    util_model:
        ``"uunifast"`` (UUniFast-discard) or ``"randfixedsum"``.
    period_model:
        ``"loguniform"``, ``"uniform"``, ``"discrete"``, ``"harmonic"`` or
        ``"kchain"``.
    max_util:
        Per-task utilization cap; ``None`` means 1.0.  Use
        :meth:`light` to cap at the paper's light-task threshold.
    k:
        Number of harmonic chains (only for ``period_model="kchain"``).
    tmin, tmax:
        Period range for the continuous period models.

    Examples
    --------
    >>> gen = TaskSetGenerator(n=12, period_model="harmonic").light()
    >>> ts = gen.generate(u_norm=0.9, processors=4, seed=1)
    >>> ts.normalized_utilization(4)  # doctest: +ELLIPSIS
    0.9...
    """

    n: int = 16
    util_model: str = "uunifast"
    period_model: str = "loguniform"
    max_util: Optional[float] = None
    k: int = 2
    tmin: float = 10.0
    tmax: float = 1000.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.util_model not in ("uunifast", "randfixedsum"):
            raise ValueError(f"unknown util_model {self.util_model!r}")
        if self.period_model not in (
            "loguniform",
            "uniform",
            "discrete",
            "harmonic",
            "kchain",
        ):
            raise ValueError(f"unknown period_model {self.period_model!r}")
        # ``tmin=10`` and ``tmin=10.0`` generate the same task sets: coerce
        # so equal generators also get equal journal namespaces.
        object.__setattr__(self, "tmin", float(self.tmin))
        object.__setattr__(self, "tmax", float(self.tmax))
        if self.max_util is not None:
            object.__setattr__(self, "max_util", float(self.max_util))
            if not 0.0 < self.max_util <= 1.0:
                raise ValueError("max_util must lie in (0, 1]")
        # Reject the period bounds a model reads here, not in generate().
        if self.period_model != "discrete":
            check_positive_finite("tmin", self.tmin)
        if self.period_model in ("loguniform", "uniform"):
            check_positive_finite("tmax", self.tmax)
            if not self.tmin < self.tmax:
                raise ValueError(
                    f"tmin must be below tmax, got {self.tmin!r} >= "
                    f"{self.tmax!r}"
                )
        if self.period_model == "kchain" and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")

    # -- fluent configuration --------------------------------------------------

    def light(self) -> "TaskSetGenerator":
        """Cap per-task utilization at ``Theta(n)/(1+Theta(n))``
        (Definition 1), producing light task sets."""
        return replace(self, max_util=light_task_threshold(self.n))

    def with_cap(self, max_util: float) -> "TaskSetGenerator":
        """Cap per-task utilization at *max_util*."""
        return replace(self, max_util=max_util)

    # -- generation ----------------------------------------------------------

    def _utilizations(
        self, u_total: float, rng: np.random.Generator
    ) -> np.ndarray:
        cap = self.max_util if self.max_util is not None else 1.0
        if self.util_model == "uunifast":
            try:
                return uunifast_discard(
                    self.n, u_total, rng, max_util=cap, max_tries=500
                )
            except RuntimeError:
                # UUniFast-discard degenerates when the cap is tight
                # relative to u_total/n (nearly every draw is rejected);
                # RandFixedSum samples the same constrained simplex with no
                # rejection, so fall back to it — exactly why
                # Emberson et al. introduced it for task-set generation.
                return randfixedsum_utilizations(
                    self.n, u_total, rng, max_util=cap
                )
        return randfixedsum_utilizations(self.n, u_total, rng, max_util=cap)

    def _periods(self, rng: np.random.Generator) -> np.ndarray:
        if self.period_model == "loguniform":
            return loguniform_periods(self.n, rng, tmin=self.tmin, tmax=self.tmax)
        if self.period_model == "uniform":
            return uniform_periods(self.n, rng, tmin=self.tmin, tmax=self.tmax)
        if self.period_model == "discrete":
            return discrete_periods(self.n, rng)
        if self.period_model == "harmonic":
            return harmonic_periods(self.n, rng, base=self.tmin)
        return k_chain_periods(self.n, self.k, rng, base_low=self.tmin)

    def generate(
        self,
        *,
        u_norm: float,
        processors: int,
        seed: Union[int, np.random.Generator, None] = None,
    ) -> TaskSet:
        """One task set with normalized utilization ``u_norm`` on
        *processors* processors (total utilization ``u_norm * M``)."""
        check_positive("u_norm", u_norm)
        check_positive("processors", processors)
        rng = make_rng(seed)
        u_total = u_norm * processors
        utils = self._utilizations(u_total, rng).tolist()
        periods = self._periods(rng).tolist()
        # ``u * t`` on Python floats is the IEEE product NumPy computes.
        return TaskSet.from_columns([u * t for u, t in zip(utils, periods)], periods)

    def batch(
        self,
        *,
        u_norm: float,
        processors: int,
        count: int,
        seed: Union[int, np.random.Generator, None] = None,
    ) -> List[TaskSet]:
        """A list of *count* independent task sets (single RNG stream)."""
        rng = make_rng(seed)
        return [
            self.generate(u_norm=u_norm, processors=processors, seed=rng)
            for _ in range(count)
        ]

    def stream(
        self,
        *,
        u_norm: float,
        processors: int,
        seed: Union[int, np.random.Generator, None] = None,
    ) -> Iterator[TaskSet]:
        """An endless iterator of task sets (for loop-until-converged use)."""
        rng = make_rng(seed)
        while True:
            yield self.generate(u_norm=u_norm, processors=processors, seed=rng)
