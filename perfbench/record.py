"""Print the output digests the checks compare against.

Run from the root of a checkout after a change that is meant to alter
the program's outputs, and copy the values into ``perfbench/manifest.json``::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import churn, sweep_e3  # noqa: E402
from perfbench.common import MANIFEST, digest, load_json  # noqa: E402


def main() -> int:
    from repro.analysis.acceptance import acceptance_sweep
    from repro.cluster.simulator import simulate_churn

    manifest = load_json(MANIFEST)
    sweep = manifest["sweep-e3"]
    generator, algorithms = sweep_e3.build()
    curves = acceptance_sweep(
        algorithms,
        generator,
        processors=sweep_e3.PROCESSORS,
        u_grid=sweep_e3.U_GRID,
        samples=sweep["samples"],
        seed=sweep["seed"],
    ).curves
    states = [
        simulate_churn(config).metrics.as_state()
        for config in churn.build()(manifest["churn"]["seed"])
    ]
    print(json.dumps({
        "sweep-e3.curves_digest": digest(curves),
        "churn.metrics_digest": digest(states),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
