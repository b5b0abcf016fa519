"""``/v1/bounds``, the degraded admit and ``repro bounds`` evaluate each
D-PUB once: their numbers equal the per-bound API, the chain cover runs
at most once per request, and all three share one guarantee verdict.
The bounds' plain-``math`` arithmetic gives the same floats as the NumPy
formulas it replaced."""

import json
import math

import numpy as np
import pytest

from repro import cli
from repro._util.floats import EPS
from repro.core import bounds as bounds_mod
from repro.core.bounds import (
    ALL_BOUNDS,
    RBound,
    SpecializationBound,
    TBound,
    best_bound_value,
    harmonize_periods,
    rmts_bound_cap,
    scaled_periods,
)
from repro.core.task import TaskSet
from repro.service.handlers import compute_bounds_body, degraded_admit_body
from repro.taskgen.periods import (
    discrete_periods,
    harmonic_periods,
    loguniform_periods,
)

pytestmark = pytest.mark.service

_PERIODS = {
    "harmonic": harmonic_periods,
    "discrete": discrete_periods,
    "loguniform": loguniform_periods,
}


def _taskset(kind: str, seed: int) -> TaskSet:
    rng = np.random.default_rng(seed)
    periods = _PERIODS[kind](12, rng)
    costs = periods * rng.uniform(0.01, 0.3, size=len(periods))
    return TaskSet.from_pairs(zip(costs.tolist(), periods.tolist()))


def _run_cli(tmp_path, capsys, ts: TaskSet, processors=None) -> str:
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([[t.cost, t.period] for t in ts]))
    argv = ["bounds", str(path)]
    if processors:
        argv += ["--processors", str(processors)]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture
def chain_calls(monkeypatch):
    """Count calls of the chain cover behind every ``K``."""
    calls = []
    real = bounds_mod.harmonic_chains

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds_mod, "harmonic_chains", counting)
    return calls


@pytest.mark.parametrize("processors", [None, 3])
@pytest.mark.parametrize("kind", sorted(_PERIODS))
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestEqualsPerBoundApi:
    def test_bounds_body(self, kind, seed, processors, chain_calls):
        ts = _taskset(kind, seed)
        body = compute_bounds_body(ts, processors)
        assert len(chain_calls) <= 1
        assert list(body["bounds"]) == [b.name for b in ALL_BOUNDS]
        for b in ALL_BOUNDS:
            assert body["bounds"][b.name] == {
                "value": b.value(ts),
                "capped": b.capped_value(ts),
            }
        assert body["best_bound"] == best_bound_value(ts)
        assert body["rmts_cap"] == rmts_bound_cap(len(ts))
        if processors:
            lam = min(best_bound_value(ts), rmts_bound_cap(len(ts)))
            u_norm = ts.normalized_utilization(processors)
            assert body["guaranteed_schedulable"] is (u_norm <= lam + 1e-9)

    def test_degraded_admit_body(self, kind, seed, processors, chain_calls):
        ts = _taskset(kind, seed)
        body = degraded_admit_body(ts, processors or 2, "rmts")
        assert len(chain_calls) <= 1
        assert body["bound"] == min(
            best_bound_value(ts), rmts_bound_cap(len(ts))
        )

    def test_cli(self, kind, seed, processors, chain_calls, tmp_path, capsys):
        ts = _taskset(kind, seed)
        out = _run_cli(tmp_path, capsys, ts, processors)
        assert len(chain_calls) <= 1
        for b in ALL_BOUNDS:
            assert (
                f"  {b.name:>8}: {b.value(ts):.4f} "
                f"(capped for RM-TS: {b.capped_value(ts):.4f})"
            ) in out.splitlines()
        assert f"  best D-PUB: {best_bound_value(ts):.4f}" in out


def _two_task_set(u_norm: float) -> TaskSet:
    """Two unit-period tasks whose total utilization is exactly *u_norm*.

    ``u_norm - 0.5`` is exact for ``u_norm`` in ``[0.5, 1]`` (Sterbenz),
    so ``0.5 + (u_norm - 0.5)`` rounds back to *u_norm* on one processor.
    """
    ts = TaskSet.from_pairs([(0.5, 1.0), (u_norm - 0.5, 1.0)])
    assert ts.normalized_utilization(1) == u_norm
    return ts


class TestVerdictAgreement:
    """CLI and ``/v1/bounds`` agree a few ulps either side of ``lam``."""

    LAM = rmts_bound_cap(2)  # equal periods: every D-PUB is capped

    @staticmethod
    def _ulps(x: float, k: int) -> float:
        step = math.inf if k > 0 else -math.inf
        for _ in range(abs(k)):
            x = math.nextafter(x, step)
        return x

    @pytest.mark.parametrize("edge", ["lam", "lam+eps"])
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 3])
    def test_cli_matches_bounds_body(self, edge, k, tmp_path, capsys):
        anchor = self.LAM if edge == "lam" else self.LAM + 1e-9
        ts = _two_task_set(self._ulps(anchor, k))
        body = compute_bounds_body(ts, 1)
        assert body["best_bound"] == 1.0
        out = _run_cli(tmp_path, capsys, ts, 1)
        assert ("GUARANTEED schedulable" in out) is body[
            "guaranteed_schedulable"
        ]
        assert degraded_admit_body(ts, 1, "rmts")["admitted"] is body[
            "guaranteed_schedulable"
        ]
        if edge == "lam":
            assert body["guaranteed_schedulable"] is True
        elif k > 0:
            assert body["guaranteed_schedulable"] is False


# The NumPy formulas the bounds were computed with before they moved to
# ``math``: kept here as the oracle that /v1/bounds bodies did not change
# by a single bit.


def _np_scaled_periods(periods) -> np.ndarray:
    ps = np.asarray(periods, dtype=float)
    exponents = np.floor(np.log2(ps.max() / ps) + EPS)
    return np.sort(ps * np.exp2(exponents))


def _np_t_bound(ts: TaskSet) -> float:
    sp = _np_scaled_periods([t.period for t in ts])
    return float((sp[1:] / sp[:-1]).sum()) + 2.0 * float(sp[0] / sp[-1]) - len(ts)


def _np_r_bound(ts: TaskSet) -> float:
    n = len(ts)
    sp = _np_scaled_periods([t.period for t in ts])
    r = float(sp[-1] / sp[0])
    if n == 1:
        return 2.0 / r - 1.0
    return (n - 1) * (r ** (1.0 / (n - 1)) - 1.0) + 2.0 / r - 1.0


def _np_grid(periods: np.ndarray, base: float) -> np.ndarray:
    return base * np.exp2(np.floor(np.log2(periods / base) + EPS))


def _np_sr_bound(ts: TaskSet) -> float:
    periods = np.array([t.period for t in ts], dtype=float)
    best = 0.0
    for base in np.unique(periods):
        best = max(best, 1.0 / float((periods / _np_grid(periods, base)).max()))
    return min(best, 1.0)


def _np_harmonized(ts: TaskSet) -> list:
    periods = np.array([t.period for t in ts], dtype=float)
    best_base, best_worst = None, float("inf")
    for candidate in np.unique(periods):
        worst = float((periods / _np_grid(periods, candidate)).max())
        if worst < best_worst:
            best_base, best_worst = float(candidate), worst
    return [float(p) for p in _np_grid(periods, best_base)]


def _near_octave_taskset() -> TaskSet:
    """Periods within float noise of a power of two times another, where
    ``floor(log2(x) + EPS)`` forgives the noise."""
    periods = [10.0, 20 * (1 - 1e-12), 40 * (1 - 3e-11), 15.0,
               30 * (1 + 1e-13), 7.5 * (1 - 1e-10), 12.0, 24 * (1 - 5e-10)]
    return TaskSet.from_pairs((0.05 * t, t) for t in periods)


def _large_taskset(kind: str, seed: int) -> TaskSet:
    rng = np.random.default_rng(seed)
    periods = _PERIODS[kind](64, rng)
    return TaskSet.from_pairs(zip((0.01 * periods).tolist(), periods.tolist()))


_ORACLE_SETS = (
    [(f"{kind}-{seed}", lambda kind=kind, seed=seed: _taskset(kind, seed))
     for kind in sorted(_PERIODS) for seed in range(8)]
    + [(f"{kind}-64", lambda kind=kind: _large_taskset(kind, 0))
       for kind in sorted(_PERIODS)]
    + [("near-octave", _near_octave_taskset)]
)


@pytest.mark.parametrize(
    "build", [b for _, b in _ORACLE_SETS], ids=[i for i, _ in _ORACLE_SETS]
)
def test_math_bounds_equal_the_numpy_formulas(build):
    ts = build()
    periods = [t.period for t in ts]
    assert scaled_periods(periods) == _np_scaled_periods(periods).tolist()
    assert TBound().value(ts) == _np_t_bound(ts)
    assert RBound().value(ts) == _np_r_bound(ts)
    assert SpecializationBound().value(ts) == _np_sr_bound(ts)
    assert [t.period for t in harmonize_periods(ts)] == _np_harmonized(ts)
    body = compute_bounds_body(ts, 3)
    assert body["bounds"]["T-Bound"]["value"] == _np_t_bound(ts)
    assert body["bounds"]["R-Bound"]["value"] == _np_r_bound(ts)
    assert body["bounds"]["Sr-Bound"]["value"] == _np_sr_bound(ts)
