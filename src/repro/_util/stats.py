"""Shared statistical estimators: Wilson score interval and bootstrap CI.

The search layer classifies a utilization level as above/below the
acceptance frontier from a *finite* Bernoulli sample, so every verdict
needs an interval, not a point estimate.  The Wilson score interval is
the standard choice for binomial proportions at the sample sizes the
frontier mapper uses (tens of probes): unlike the Wald interval it never
degenerates at ``p_hat in {0, 1}`` — exactly the regime of probes far
from the frontier, which is where adaptive sampling saves its budget.

:func:`bootstrap_ci` serves the continuous side (mean breakdown
utilization over random shapes in :mod:`repro.analysis.breakdown`); the
resampling stream derives from an explicit seed so reports are
reproducible.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro._util.validation import check_positive

__all__ = ["z_score", "wilson_interval", "wilson_half_width", "bootstrap_ci"]


def _check_confidence(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must lie in (0, 1), got {confidence!r}"
        )
    return confidence


def z_score(confidence: float) -> float:
    """Two-sided standard-normal critical value for *confidence*.

    ``z_score(0.95)`` is the familiar ``1.95996...``.
    """
    # Imported here: ``scipy.stats`` takes over a second to load, which
    # every ``repro`` command would otherwise pay at start-up.
    from scipy.stats import norm

    _check_confidence(confidence)
    return float(norm.ppf(0.5 * (1.0 + confidence)))


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns ``(lo, hi)`` with ``0 <= lo <= hi <= 1``.  The center is
    shrunk toward 1/2 by the ``z^2 / 2n`` pseudo-counts, which keeps the
    interval informative even when every probe agreed (``successes`` of
    0 or ``trials``) — the Wald interval would collapse to width zero
    there and misclassify frontier levels with certainty it does not
    have.
    """
    check_positive("trials", trials)
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must lie in [0, {trials}], got {successes}"
        )
    z = z_score(confidence)
    n = float(trials)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    spread = (z / denom) * np.sqrt(
        p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)
    )
    return (
        max(0.0, float(center - spread)),
        min(1.0, float(center + spread)),
    )


def wilson_half_width(
    successes: int, trials: int, *, confidence: float = 0.95
) -> float:
    """Half the width of :func:`wilson_interval` (clamping included)."""
    lo, hi = wilson_interval(successes, trials, confidence=confidence)
    return 0.5 * (hi - lo)


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for the sample mean.

    The resampling RNG derives from the explicit *seed* (the package's
    seeded-randomness discipline, rule R2), so the same inputs always
    produce the same interval.
    """
    _check_confidence(confidence)
    check_positive("resamples", resamples)
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("bootstrap_ci needs at least one value")
    if data.size == 1:
        return (float(data[0]), float(data[0]))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.size, size=(int(resamples), data.size))
    means = data[idx].mean(axis=1)
    alpha = 0.5 * (1.0 - confidence)
    lo = float(np.quantile(means, alpha))
    hi = float(np.quantile(means, 1.0 - alpha))
    return (lo, hi)
