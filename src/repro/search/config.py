"""Search configurations and their content-addressed identity.

The journal namespace follows the ``sweep:<config-sha256>`` discipline of
:func:`repro.analysis.acceptance.sweep_config_key`: a
:func:`~repro._util.keys.content_key` (floats encoded with
``float.hex()``, so the key is exact), and algorithms participate by *name*
(renaming invalidates checkpoints; changing an implementation does not —
run ``python -m repro store gc`` after algorithm changes).

One deliberate difference from the sweep key: the frontier namespace
hashes only the fields a probe's *verdict* depends on (algorithm name,
generator parameters, processors, seed).  A probe at utilization ``u``
with sample index ``k`` is a pure function of those four plus ``(u, k)``
— the search-policy fields (target level, confidence, half-width, batch
sizes) only decide *which* probes get computed, never their values.
Keying the namespace on the probe identity alone lets a sharpness scan
at level 0.9, a frontier run at level 0.5 and a rerun with a tighter
half-width all dedup against the same journal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Tuple

from repro._util.keys import content_key
from repro.taskgen.generators import TaskSetGenerator

__all__ = [
    "SearchConfig",
    "search_config_key",
    "search_namespace",
    "adversarial_config_key",
]


@dataclass(frozen=True)
class SearchConfig:
    """One frontier-mapping run: probe identity + search policy.

    Parameters
    ----------
    algorithm:
        A :data:`repro.analysis.algorithms.PARTITIONERS` key.
    generator:
        Task-set shape distribution probed at each utilization level.
    level:
        Acceptance probability defining the frontier (0.5 = the median
        breakdown utilization of the shape distribution).
    confidence, half_width:
        Stop refining once the bisection bracket's half-width is at most
        *half_width*, with every level classification backed by a
        *confidence* Wilson interval (or the per-level sample cap).
    batch:
        Probes added per adaptive-sampling step at one level.
    max_samples_per_level:
        Per-level probe cap; a level still undecided there is classified
        by its point estimate (and counted in ``undecided_levels``).
    """

    algorithm: str = "rmts"
    generator: TaskSetGenerator = field(default_factory=TaskSetGenerator)
    processors: int = 4
    seed: int = 0
    confidence: float = 0.95
    level: float = 0.5
    half_width: float = 0.02
    u_min: float = 0.5
    u_max: float = 1.0
    batch: int = 20
    max_samples_per_level: int = 160
    max_rounds: int = 40

    def __post_init__(self) -> None:
        from repro.analysis.algorithms import PARTITIONERS

        if self.algorithm not in PARTITIONERS:
            known = ", ".join(sorted(PARTITIONERS))
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known: {known}"
            )
        if self.processors < 1:
            raise ValueError("processors must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if not self.half_width > 0.0:
            raise ValueError("half_width must be positive")
        if not self.u_min > 0.0:
            raise ValueError("u_min must be positive")
        if not self.u_max > self.u_min:
            raise ValueError("u_max must exceed u_min")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.max_samples_per_level < self.batch:
            raise ValueError("max_samples_per_level must be >= batch")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


def search_config_key(config: SearchConfig) -> str:
    """Content hash of the *probe identity* fields (see module docstring)."""
    return content_key(
        "search_probes",
        algorithm=config.algorithm,
        generator=asdict(config.generator),
        processors=int(config.processors),
        seed=int(config.seed),
    )


def search_namespace(config: SearchConfig) -> str:
    """The journal namespace for *config*'s probes."""
    return "search:" + search_config_key(config)


def adversarial_config_key(
    *,
    algorithm: str,
    generator: TaskSetGenerator,
    processors: int,
    seed: int,
    population: int,
    elite_frac: float,
    base_u_norm: float,
    tolerance: float,
    margin_floor: float,
    max_util_range: Tuple[float, float],
    tmax_range: Tuple[float, float],
) -> str:
    """Content hash of one adversarial search's candidate trajectory.

    Unlike the frontier key, *every* cross-entropy parameter except the
    round budget participates: a candidate drawn in round ``r`` depends
    on the elite statistics of rounds ``< r``, hence on the population
    size and elite fraction.  The round count is excluded on purpose —
    a journaled prefix stays valid when the budget is extended, which is
    what makes kill-and-resume (and "search a little longer") replays
    byte-identical.
    """
    return content_key(
        "adversarial_search",
        algorithm=algorithm,
        generator=asdict(generator),
        processors=int(processors),
        seed=int(seed),
        population=int(population),
        elite_frac=float(elite_frac),
        base_u_norm=float(base_u_norm),
        tolerance=float(tolerance),
        margin_floor=float(margin_floor),
        max_util_range=[float(v) for v in max_util_range],
        tmax_range=[float(v) for v in tmax_range],
    )
