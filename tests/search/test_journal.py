"""Probe-journal tests: resume identity, budgets, cross-search dedup."""

from dataclasses import replace

import pytest

from repro.search.config import SearchConfig, search_namespace
from repro.search.frontier import map_frontier, measure_sharpness
from repro.search.probes import PROBE_WIDTH, evaluate_probe, probe_key, u_key
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted, Journal
from repro.taskgen.generators import TaskSetGenerator

pytestmark = pytest.mark.search


@pytest.fixture
def config() -> SearchConfig:
    return SearchConfig(
        algorithm="rmts",
        generator=TaskSetGenerator(n=12),
        processors=4,
        seed=0,
        u_min=0.6,
        half_width=0.05,
        batch=10,
        max_samples_per_level=40,
    )


@pytest.fixture
def store(tmp_path):
    backend = ResultStore(str(tmp_path / "search.db"))
    yield backend
    backend.close()


class TestProbeKeys:
    def test_u_key_is_exact_bit_pattern(self):
        assert u_key(0.5) == u_key(0.5)
        assert u_key(0.1 + 0.2) != u_key(0.3)  # distinct doubles, distinct keys

    def test_probe_key_uses_float_hex(self):
        assert probe_key(0.75, 3) == "0x1.8000000000000p-1:3"


class TestResume:
    def test_journal_resumes_from_store(self, config, store):
        first = map_frontier(config, store=store)
        assert first.probes_resumed == 0
        second = map_frontier(config, store=store)
        assert second.probes_computed == 0
        assert second.probes_resumed == first.probes_total
        first_payload = first.as_dict()
        second_payload = second.as_dict()
        for key in ("probes_computed", "probes_resumed"):
            first_payload.pop(key)
            second_payload.pop(key)
        assert second_payload == first_payload

    def test_budget_kill_then_resume_is_byte_identical(self, config, store):
        full = map_frontier(config)
        cutoff = full.probes_computed // 2
        with pytest.raises(BudgetExhausted) as excinfo:
            map_frontier(config, store=store, max_new_probes=cutoff)
        assert excinfo.value.completed <= excinfo.value.total
        resumed = map_frontier(config, store=store)
        assert resumed.probes_resumed == cutoff
        full_payload = full.as_dict()
        resumed_payload = resumed.as_dict()
        for key in ("probes_computed", "probes_resumed"):
            full_payload.pop(key)
            resumed_payload.pop(key)
        assert resumed_payload == full_payload

    def test_zero_budget_interrupts_before_any_probe(self, config, store):
        with pytest.raises(BudgetExhausted):
            map_frontier(config, store=store, max_new_probes=0)
        assert store.get_namespace(search_namespace(config)) == {}

    def test_sharpness_scan_dedups_against_main_run(self, config, store):
        map_frontier(config, store=store)
        sharpness = measure_sharpness(config, store=store)
        # The 0.9/0.1-level bisections revisit already-journaled levels
        # (both endpoints at minimum), so some probes must be served
        # from the journal rather than recomputed.
        assert sharpness["probes_resumed"] > 0

    def test_journal_counts_survive_reopen(self, config, tmp_path):
        path = str(tmp_path / "reopen.db")
        backend = ResultStore(path)
        try:
            first = map_frontier(config, store=backend)
        finally:
            backend.close()
        backend = ResultStore(path)
        try:
            journal = Journal(
                backend, search_namespace(config), worker=evaluate_probe,
                key_fn=probe_key, width=PROBE_WIDTH,
            )
            assert journal.journaled == first.probes_total
        finally:
            backend.close()


class TestInMemoryJournal:
    def test_memoizes_repeated_requests(self):
        journal = Journal(
            None, "", worker=evaluate_probe, key_fn=probe_key,
            width=PROBE_WIDTH,
        )
        generator = TaskSetGenerator(n=4)

        def test(ts, m):
            return True

        payload = (test, generator, 2, 0)
        items = [(0.5, idx) for idx in range(4)]
        first = journal.evaluate(items, payload)
        again = journal.evaluate(items, payload)
        assert again == first
        assert journal.computed == 4
        assert journal.resumed == 4
