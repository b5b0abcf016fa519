"""Floating-point comparison helpers with a single shared tolerance policy.

The scheduling algorithms in this package perform arithmetic on task
parameters (execution times, periods, utilizations) that are generated as
floats.  Schedulability decisions frequently sit exactly on a boundary
(e.g. a processor filled up to *exactly* the Liu & Layland bound by
``MaxSplit``), so raw ``<=`` comparisons would make results depend on the
last ulp of a summation order.  Every boundary comparison in the package
goes through the helpers below, which use a combined absolute/relative
tolerance.

The tolerances are deliberately tight: they only absorb accumulated
round-off, never modelling error.  The discrete-event simulator uses the
same policy so that analysis and simulation agree on boundary cases.

:func:`pairwise_sum` serves the same goal from the other side: list-based
code that adds in numpy's order lands on the same side of every boundary
as array-based code.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Absolute tolerance used throughout the package.
EPS: float = 1e-9

#: Relative tolerance used throughout the package.
REL_TOL: float = 1e-9

#: Leaf size of numpy's pairwise summation (``PW_BLOCKSIZE``).
_PW_BLOCK = 128


def is_close(a: float, b: float, *, eps: float = EPS, rel: float = REL_TOL) -> bool:
    """Return ``True`` when *a* and *b* are equal up to the package tolerance."""
    return abs(a - b) <= max(eps, rel * max(abs(a), abs(b)))


def approx_le(a: float, b: float, *, eps: float = EPS, rel: float = REL_TOL) -> bool:
    """``a <= b`` up to tolerance (boundary counts as satisfied)."""
    return a <= b or is_close(a, b, eps=eps, rel=rel)


def approx_ge(a: float, b: float, *, eps: float = EPS, rel: float = REL_TOL) -> bool:
    """``a >= b`` up to tolerance (boundary counts as satisfied)."""
    return a >= b or is_close(a, b, eps=eps, rel=rel)


def approx_lt(a: float, b: float, *, eps: float = EPS, rel: float = REL_TOL) -> bool:
    """``a < b`` strictly beyond tolerance."""
    return a < b and not is_close(a, b, eps=eps, rel=rel)


def approx_gt(a: float, b: float, *, eps: float = EPS, rel: float = REL_TOL) -> bool:
    """``a > b`` strictly beyond tolerance."""
    return a > b and not is_close(a, b, eps=eps, rel=rel)


def is_integer_multiple(small: float, large: float, *, rel: float = 1e-6) -> bool:
    """Return ``True`` when *large* is an integer multiple of *small*.

    Used by the harmonic-chain machinery: two periods are *harmonic* when
    one divides the other.  The check is performed on the ratio with a
    relative tolerance, so periods produced by floating-point generators
    (e.g. ``base * 2 ** k``) are classified correctly.
    """
    if small <= 0 or large <= 0:
        raise ValueError("periods must be positive")
    if large < small:
        return False
    ratio = large / small
    nearest = round(ratio)
    if nearest == 0:
        return False
    return abs(ratio - nearest) <= rel * ratio


def safe_ceil(x: float, *, eps: float = EPS) -> int:
    """Ceiling that forgives values an epsilon above an integer.

    ``ceil(3.0000000001)`` should be 3 in interference computations where
    the fraction is round-off noise, not a genuine extra job release.
    """
    floor = math.floor(x)
    if x - floor <= eps * max(1.0, abs(x)):
        return int(floor)
    return int(math.ceil(x))


def pairwise_sum(values: Sequence[float]) -> float:
    """``float(np.sum(np.array(values)))`` computed on plain Python floats.

    Reproduces numpy's float64 add-reduction order bit for bit: a
    left-to-right sum below 8 terms, eight interleaved partial sums
    combined as a balanced tree up to 128 terms, and a recursive split
    at a multiple of 8 above that.  A plain running sum differs from
    ``np.sum`` in the last ulp for many inputs of 8 or more terms, and
    exact-RTA admission compares such sums against ``1 + EPS`` literally,
    so list-based analysis must add in numpy's order to keep its
    decisions identical to array-based code.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return _pairwise_block(values, 0, n)


def _pairwise_block(values: Sequence[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of ``values[lo:lo + n]`` for ``n >= 8``."""
    if n > _PW_BLOCK:
        half = n // 2
        half -= half % 8
        return _pairwise_block(values, lo, half) + _pairwise_block(
            values, lo + half, n - half
        )
    r0, r1, r2, r3, r4, r5, r6, r7 = values[lo : lo + 8]
    end = lo + n
    stop = end - n % 8
    for i in range(lo + 8, stop, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(stop, end):
        total += values[i]
    return total
