"""Optimizer-in-the-loop search: frontier mapping + adversarial generation.

The paper's headline claims are *threshold* claims — RM-TS admits every
task set up to ``min(Lambda(tau), 2Theta/(1+Theta))`` while the
average-case breakdown sits far above the worst-case bound.  Fixed
utilization grids (``repro sweep``) probe such thresholds wastefully:
most samples land far from the transition, and the grid step bounds the
resolution no matter how many samples are spent.  This package replaces
the grid with derivative-free search:

* :mod:`repro.search.frontier` — stochastic bisection on ``U_M`` with
  Wilson-interval classification at each level, concentrating probes at
  the acceptance transition and reporting a confidence-bounded frontier
  interval;
* :mod:`repro.search.adversarial` — cross-entropy search over
  :class:`~repro.taskgen.generators.TaskSetGenerator` parameters for
  concrete task sets an algorithm rejects at the lowest ``U_M`` above
  its proven bound, emitting replayable witness artifacts;
* :mod:`repro.search.probes` — the probe worker: every probe is
  content-addressed into the result store under a
  ``search:<config-sha256>`` namespace through
  :class:`repro.store.journal.Journal`, so interrupted searches resume
  byte-identically and probes dedup across runs (exactly like
  ``sweep --resume``).

CLI: ``python -m repro search frontier|adversarial|witness``.  See
``docs/search.md``.
"""

from repro.search.adversarial import (
    AdversarialConfig,
    AdversarialResult,
    adversarial_search,
)
from repro.search.config import (
    SearchConfig,
    adversarial_config_key,
    search_config_key,
    search_namespace,
)
from repro.search.frontier import (
    FrontierResult,
    LevelVerdict,
    map_frontier,
    measure_sharpness,
)
from repro.search.witness import (
    load_witness,
    replay_witness,
    save_witness,
    witness_record,
)

__all__ = [
    "SearchConfig",
    "search_config_key",
    "search_namespace",
    "adversarial_config_key",
    "FrontierResult",
    "LevelVerdict",
    "map_frontier",
    "measure_sharpness",
    "AdversarialConfig",
    "AdversarialResult",
    "adversarial_search",
    "load_witness",
    "replay_witness",
    "save_witness",
    "witness_record",
]
