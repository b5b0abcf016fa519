"""The repo benchmark: one workload, its output checks, its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-e3 --seed 1 --seconds 15 --trace 0

Workloads: ``sweep-e3``, ``serve-mix`` and ``churn`` (see
``BENCHMARK.json`` for why each was chosen and ``perfbench/manifest.json``
for which layer should move which metric).  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` is the separate
run that wraps each layer's public functions and reports per-layer
numbers.  Every metric is printed as ``metric <workload> <name> = <value>
<unit>``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the program is not in this checkout,
3 when the load generator fell behind (the run is invalid and reports
nothing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "sweep-e3": "perfbench.sweep_e3",
    "serve-mix": "perfbench.serve_mix",
    "churn": "perfbench.churn",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.common import InvalidRun, Report, host_facts

    report = Report(args.workload, bool(args.trace))
    for name, value in host_facts().items():
        print(f"host {name} = {value}")
    workload = importlib.import_module(WORKLOADS[args.workload])
    try:
        result = workload.run(
            report, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
