"""Taint-fact extraction and flow findings through ``lint_paths``."""

import ast

import pytest

from repro.lint import lint_paths
from repro.lint.flow.summary import extract_module

pytestmark = pytest.mark.lint


def summarize(module, source):
    return extract_module(module, module, ast.parse(source))


class TestFactExtraction:
    def test_blocking_rng_and_sink_sites(self):
        summary = summarize(
            "m",
            "import time\n"
            "import os\n\n"
            "def slow():\n"
            "    time.sleep(1)\n\n"
            "def entropy():\n"
            "    return os.urandom(4)\n\n"
            "def persist(store, value):\n"
            "    store.put('k', value)\n\n"
            "def bench(path, payload):\n"
            "    write_bench_json(path, payload)\n",
        )
        fns = summary.functions
        assert [s.desc for s in fns["slow"].blocking] == ["time.sleep"]
        assert [s.desc for s in fns["entropy"].rng] == ["os.urandom"]
        assert fns["persist"].sinks and "put" in fns["persist"].sinks[0].desc
        assert fns["bench"].sinks

    def test_seeded_rng_is_not_a_source(self):
        summary = summarize(
            "m",
            "from numpy.random import default_rng\n\n"
            "def seeded(seed):\n"
            "    return default_rng(seed)\n\n"
            "def unseeded():\n"
            "    return default_rng()\n",
        )
        fns = summary.functions
        assert fns["seeded"].rng == []
        assert [s.desc for s in fns["unseeded"].rng] == [
            "default_rng() unseeded"
        ]

    def test_mutations_and_raises(self):
        summary = summarize(
            "m",
            "STATE = {}\n"
            "ITEMS = []\n\n"
            "def mutate(x):\n"
            "    STATE['k'] = x\n"
            "    ITEMS.append(x)\n\n"
            "def local_only(x):\n"
            "    d = {}\n"
            "    d['k'] = x\n\n"
            "def guard(x):\n"
            "    assert x >= 0\n"
            "    if x > 1:\n"
            "        raise ValueError(x)\n",
        )
        fns = summary.functions
        assert sorted(m.extra for m in fns["mutate"].mutations) == [
            "ITEMS", "STATE",
        ]
        assert fns["local_only"].mutations == []
        assert set(fns["guard"].raises) == {"AssertionError", "ValueError"}


def _write_pkg(root):
    pkg = root / "svcpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Fixture pkg."""\n',
                                     encoding="utf-8")
    (pkg / "helpers.py").write_text(
        '"""Helpers."""\n\nimport time\n\n\n'
        "def slow():\n    time.sleep(1)\n",
        encoding="utf-8",
    )
    service = pkg / "service"
    service.mkdir()
    (service / "__init__.py").write_text('"""Service."""\n',
                                        encoding="utf-8")
    (service / "handlers.py").write_text(
        '"""Handlers."""\n\nfrom svcpkg.helpers import slow\n\n\n'
        "async def handler(request):\n    return slow()\n",
        encoding="utf-8",
    )
    return pkg


class TestIncrementalCache:
    """Flow findings through ``lint_paths``: suppressions and ``select``."""

    def test_suppression_filters_flow_findings(self, tmp_path):
        pkg = _write_pkg(tmp_path)
        assert [d.code for d in lint_paths([str(pkg)])] == ["R9"]
        (pkg / "service" / "handlers.py").write_text(
            '"""Handlers."""\n\nfrom svcpkg.helpers import slow\n\n\n'
            "async def handler(request):\n"
            "    return slow()  # repro-lint: disable=R9\n",
            encoding="utf-8",
        )
        assert lint_paths([str(pkg)]) == []

    def test_select_limits_rules(self, tmp_path):
        pkg = _write_pkg(tmp_path)
        assert lint_paths([str(pkg)], select=["R10"]) == []
