"""Importing the package's entry points pulls in no heavy optional deps.

``networkx`` is not a dependency at all (the chain cover is in-repo) and
``scipy`` is imported lazily where a statistic needs it; a module-level
import of either would add its load time and memory to every process.

NumPy stays off the admission path too: the CLI, the HTTP server and the
algorithm registry load neither NumPy nor the simulator or the task-set
generator (whose RNG streams do need it), and serving an RM-TS admit and
a bounds request keeps it that way.
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

#: The entry points of ``repro serve``, ``repro partition`` and
#: ``repro bounds``.
_ADMISSION_ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.service.server",
    "repro.analysis.algorithms",
)

#: Kept out of every admission-path process.
_OFF_PATH = ("numpy", "repro.sim", "repro.taskgen")

_REPORT = (
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "    if any(m == p or m.startswith(p + '.') for p in {prefixes!r}))))\n"
)


def _loaded(code: str, prefixes) -> list:
    """Run *code* in a fresh interpreter; the loaded modules under
    *prefixes* afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code + _REPORT.format(prefixes=tuple(prefixes))],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_entry_points_import_neither_networkx_nor_scipy():
    code = (
        "import importlib, json, sys\n"
        f"for name in {_ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
    )
    assert _loaded(code, ("networkx", "scipy")) == []


def test_admission_entry_points_import_neither_numpy_nor_sim_nor_taskgen():
    code = (
        "import importlib, json, sys\n"
        f"for name in {_ADMISSION_ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "from repro.cli import build_parser\n"
        "build_parser().parse_args(['serve'])\n"
    )
    assert _loaded(code, _OFF_PATH) == []


def test_serving_an_rmts_admit_and_bounds_keeps_numpy_out():
    # Three 0.6 tasks on two processors: RM-TS pre-assigns a heavy task
    # and splits another, so MaxSplit and exact RTA both run.
    code = (
        "import json, sys\n"
        "from repro.perf.telemetry import COUNTERS\n"
        "from repro.service.handlers import AdmissionService\n"
        "import repro.service.server\n"
        "tasks = [[6, 10], [6, 10], [3, 5], [2, 20]]\n"
        "svc = AdmissionService()\n"
        "req, key = svc.prepare_admit(\n"
        "    {'tasks': tasks, 'processors': 2, 'algorithm': 'rmts'})\n"
        "hit, body = svc.answer(key, lambda: svc.compute_admit(req))\n"
        "assert body['admitted'] and not hit, body\n"
        "assert COUNTERS.maxsplit_calls > 0\n"
        "req, key = svc.prepare_bounds({'tasks': tasks, 'processors': 2})\n"
        "hit, body = svc.answer(key, lambda: svc.compute_bounds(req))\n"
        "assert body['best_bound'] == 1.0, body\n"
    )
    assert _loaded(code, _OFF_PATH) == []


def test_cli_preset_choices_match_the_workload_registry():
    # The parser spells the preset names out so that building it does not
    # import taskgen; they must stay the registry's names.
    from repro import cli
    from repro.taskgen.workloads import preset_names

    assert list(cli._PRESET_NAMES) == preset_names()


def test_acceptance_loads_no_store_and_the_store_no_analysis():
    # A store-less sweep (what the experiments and perfbench run) must not
    # pay for sqlite3 or the store; the store holds no analysis code.
    code = "import json, sys\nimport repro.analysis.acceptance\n"
    assert _loaded(code, ("sqlite3", "repro.store")) == []
    code = "import json, sys\nimport repro.store\n"
    assert _loaded(code, ("repro.analysis",)) == []
