"""Importing the package's entry points pulls in no heavy optional deps.

``networkx`` is not a dependency at all (the chain cover is in-repo) and
``scipy`` is imported lazily where a statistic needs it; a module-level
import of either would add its load time and memory to every process.
"""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.service.server",
    "repro.cluster",
    "repro.analysis.algorithms",
)


def test_entry_points_import_neither_networkx_nor_scipy():
    code = (
        "import importlib, json, sys\n"
        f"for name in {_ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.split('.')[0] in ('networkx', 'scipy'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
