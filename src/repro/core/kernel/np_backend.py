"""NumPy lockstep backend for the batched RTA kernel.

All lanes of a bucket iterate the RTA fixed point *together*: one
``r``-vector holds every active lane's current response estimate, one
loop round applies the iteration map to all of them, and lanes retire —
by divergence past the deadline bound or by convergence — through
boolean-mask compaction, so each round only touches lanes that are
still live.

Bit-identity with the scalar reference (``py_backend``) is by
construction, not by tolerance: the per-lane arithmetic is the *same
IEEE-754 operation sequence*.  The per-interferer terms
``ceil(r/T_j - EPS) * C_j`` are elementwise, so they can be computed
for the whole ``(lanes, H)`` block in four matrix ufunc calls; the
*accumulation* then still runs one column at a time, left to right,
reproducing the scalar path's serial summation exactly — a float64
elementwise op on a lane equals the identical python-float op — instead
of a dot product whose reduction order would drift by ULPs.  The
per-column accumulation loop runs once per interferer, which on the
processor sizes of the paper's workloads (a handful of subtasks) stays
negligible next to the lane-axis vector work.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro._util.floats import EPS
from repro.core.rta import _MAX_ITER

__all__ = ["run_bucket"]


def run_bucket(
    costs: np.ndarray,
    deadlines: np.ndarray,
    hp_costs: np.ndarray,
    hp_periods: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate one lane bucket in lockstep: ``(responses, iterations, ok)``.

    ``hp_costs``/``hp_periods`` are ``(lanes, H)`` matrices, ``H >= 1``.
    Responses are NaN where the lane failed (diverged past the bound, or
    converged to a value beyond it).
    """
    lanes = int(costs.shape[0])
    width = int(hp_costs.shape[1])
    responses = np.full(lanes, np.nan)
    iterations = np.zeros(lanes, dtype=np.int64)
    ok = np.zeros(lanes, dtype=bool)
    if lanes == 0:
        return responses, iterations, ok

    # Active-lane working set; compacted on every retirement wave.
    active = np.arange(lanes)
    a_cost = costs
    a_bound = deadlines * (1.0 + 1e-12) + EPS
    a_hp_c = hp_costs
    a_hp_t = hp_periods
    # Standard warm start (one job of each hp task), accumulated serially
    # per interferer to match the scalar reference bit-for-bit.
    r = a_cost.copy()
    for j in range(width):
        r += a_hp_c[:, j]

    for _ in range(_MAX_ITER):
        # Divergence check first, before billing an iteration — the
        # scalar loop tests ``r > bound`` at the top of its body.
        diverged = r > a_bound
        if diverged.any():
            keep = ~diverged
            active = active[keep]
            if active.size == 0:
                return responses, iterations, ok
            r = r[keep]
            a_cost = a_cost[keep]
            a_bound = a_bound[keep]
            a_hp_c = a_hp_c[keep]
            a_hp_t = a_hp_t[keep]
        iterations[active] += 1
        # One round of the iteration map for every live lane: the
        # per-term matrix in bulk, then serial per-column accumulation
        # (same floats, same left-to-right order as the scalar path).
        terms = np.ceil(r[:, None] / a_hp_t - EPS) * a_hp_c
        r_new = a_cost.copy()
        for j in range(width):
            r_new += terms[:, j]
        converged = r_new <= r + EPS
        if converged.any():
            settled = active[converged]
            settled_r = r_new[converged]
            good = settled_r <= a_bound[converged]  # repro-lint: disable=R1 (bound pre-inflated by EPS above)
            ok[settled] = good
            responses[settled[good]] = settled_r[good]
            keep = ~converged
            active = active[keep]
            if active.size == 0:
                return responses, iterations, ok
            r = r_new[keep]
            a_cost = a_cost[keep]
            a_bound = a_bound[keep]
            a_hp_c = a_hp_c[keep]
            a_hp_t = a_hp_t[keep]
        else:
            r = r_new
    raise RuntimeError("RTA fixed point failed to converge")
