"""Adversarial-search tests: CE convergence, journaling, witness replay."""

import pytest

from repro.analysis.algorithms import PARTITIONERS
from repro.core.task import TaskSet
from repro.search.adversarial import (
    MARGIN,
    U_REJECT,
    AdversarialConfig,
    adversarial_search,
)
from repro.search.witness import (
    load_witness,
    replay_witness,
    save_witness,
    witness_record,
)
from repro.store.backend import ResultStore
from repro.store.journal import BudgetExhausted
from repro.taskgen.generators import TaskSetGenerator

pytestmark = pytest.mark.search


@pytest.fixture(scope="module")
def quick_config() -> AdversarialConfig:
    return AdversarialConfig(
        algorithm="rmts",
        generator=TaskSetGenerator(n=12),
        processors=4,
        seed=0,
        rounds=2,
        population=6,
        tolerance=5e-3,
    )


@pytest.fixture(scope="module")
def quick_result(quick_config):
    return adversarial_search(quick_config)


class TestAdversarialSearch:
    def test_finds_verified_rejection_above_cap(self, quick_result):
        assert quick_result.found
        best = quick_result.best
        assert best[MARGIN] > 0.0
        cap = quick_result.as_dict()["best"]["cap"]
        assert best[U_REJECT] > cap

    def test_history_tracks_every_round(self, quick_config, quick_result):
        assert len(quick_result.history) == quick_config.rounds
        assert quick_result.candidates_computed == (
            quick_config.rounds * quick_config.population
        )
        for entry in quick_result.history:
            assert entry["best_margin"] <= entry["mean_margin"]

    def test_jobs_invariance(self, quick_config, quick_result):
        parallel = adversarial_search(quick_config, jobs=2)
        assert parallel.as_dict() == quick_result.as_dict()

    def test_journal_resume_is_identical(
        self, quick_config, quick_result, tmp_path
    ):
        store = ResultStore(str(tmp_path / "adv.db"))
        try:
            cutoff = quick_result.candidates_computed // 2
            with pytest.raises(BudgetExhausted):
                adversarial_search(
                    quick_config, store=store, max_new_candidates=cutoff
                )
            resumed = adversarial_search(quick_config, store=store)
        finally:
            store.close()
        assert resumed.candidates_resumed == cutoff
        full_payload = quick_result.as_dict()
        resumed_payload = resumed.as_dict()
        for key in ("candidates_computed", "candidates_resumed"):
            full_payload.pop(key)
            resumed_payload.pop(key)
        assert resumed_payload == full_payload

    def test_extending_rounds_reuses_journal_prefix(
        self, quick_config, tmp_path
    ):
        from dataclasses import replace

        store = ResultStore(str(tmp_path / "extend.db"))
        try:
            short = adversarial_search(quick_config, store=store)
            longer = adversarial_search(
                replace(quick_config, rounds=3), store=store
            )
        finally:
            store.close()
        assert longer.candidates_resumed == short.candidates_computed
        assert longer.history[: quick_config.rounds] == short.history

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdversarialConfig(population=1)
        with pytest.raises(ValueError):
            AdversarialConfig(elite_frac=0.0)
        with pytest.raises(ValueError):
            AdversarialConfig(max_util_range=(1.0, 0.5))


class TestWitness:
    def test_record_embeds_replayable_coordinates(self, quick_result):
        record = witness_record(quick_result)
        assert record["kind"] == "adversarial_witness"
        assert record["u_norm"] > record["cap"]
        ts = TaskSet.from_dicts(record["tasks"])
        u_norm = ts.normalized_utilization(int(record["processors"]))
        assert u_norm == pytest.approx(record["u_norm"], rel=1e-9)

    def test_witness_set_is_actually_rejected(self, quick_result):
        record = witness_record(quick_result)
        ts = TaskSet.from_dicts(record["tasks"])
        partitioner = PARTITIONERS[record["algorithm"]]
        assert not partitioner(ts, int(record["processors"])).success

    def test_replay_confirms(self, quick_result):
        replay = replay_witness(witness_record(quick_result))
        assert replay["confirmed"]
        assert replay["tasks_match"]
        assert replay["rejected"]
        assert replay["counters_match"]
        assert replay["above_cap"]

    def test_replay_identical_across_jobs(self, quick_result):
        # Satellite contract: the witness replay reproduces identical
        # verdicts and analysis-cost counters at jobs=1 and jobs=2.
        record = witness_record(quick_result)
        serial = replay_witness(record, jobs=1)
        parallel = replay_witness(record, jobs=2)
        assert parallel == serial

    def test_save_and_load_round_trip(self, quick_result, tmp_path):
        path = str(tmp_path / "witness.json")
        record = save_witness(quick_result, path)
        loaded = load_witness(path)
        assert loaded["tasks"] == record["tasks"]
        assert loaded["u_norm"] == record["u_norm"]
        assert "provenance" in loaded  # stamped artifact
        assert replay_witness(loaded)["confirmed"]

    def test_load_rejects_non_witness_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "churn_bench"}')
        with pytest.raises(ValueError):
            load_witness(str(path))

    def test_record_requires_a_found_witness(self, quick_config):
        from repro.search.adversarial import AdversarialResult

        barren = AdversarialResult(
            config=quick_config,
            best=None,
            best_position=None,
            history=[],
            candidates_computed=0,
            candidates_resumed=0,
        )
        assert not barren.found
        with pytest.raises(ValueError):
            witness_record(barren)
