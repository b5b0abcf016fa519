"""Bench-drift gate: exact classification, ignores, CLI exit codes."""

import json

import pytest

from repro.perf.bench_check import (
    DEFAULT_IGNORES,
    classify,
    compare_values,
    flatten,
    main,
    pair_artifacts,
)

pytestmark = pytest.mark.ci


# -- flatten + classification ----------------------------------------------


def test_flatten_uses_dots_and_list_indices():
    flat = flatten({"a": {"b": 1}, "c": [10, {"d": 2}]})
    assert flat == {"a.b": 1, "c[0]": 10, "c[1].d": 2}


def test_classify_statuses():
    baseline = {
        "counters": {"rta_calls": 100},
        "wall_seconds_min": 1.0,
        "gone": 5,
        "curves": {"RM-TS": [1.0, 0.5]},
    }
    fresh = {
        "counters": {"rta_calls": 101},          # drift
        "wall_seconds_min": 1.8,                 # drift: no slack for time
        "new_key": "hello",                      # added → warning
        "curves": {"RM-TS": [1.0, 0.5]},         # equal
    }
    findings = {f.path: f for f in classify(baseline, fresh)}
    assert findings["counters.rta_calls"].status == "drift"
    assert findings["wall_seconds_min"].status == "drift"
    assert findings["gone"].status == "missing"
    assert findings["gone"].is_drift
    assert findings["new_key"].status == "added"
    assert not findings["new_key"].is_drift
    assert findings["curves.RM-TS[0]"].status == "equal"


def test_classify_ignores_noise_paths():
    baseline = {
        "provenance": {"code_version": "a"},
        "host": {"cpu_count": 1},
        "real": 1,
    }
    fresh = {
        "provenance": {"code_version": "b"},
        "host": {"cpu_count": 64},
        "real": 1,
    }
    findings = classify(baseline, fresh)
    assert [f.path for f in findings] == ["real"]
    assert findings[0].status == "equal"


def test_loadgen_clock_leaves_are_ignored_and_its_counts_are_not():
    def report(rps, p50, uptime, count):
        return {
            "client": {
                "elapsed_seconds": 1.0 / rps,
                "rps": rps,
                "latency_ms": {"p50": p50, "p90": p50, "p99": p50,
                               "max": p50},
                "cache_hit_responses": 25,
            },
            "server_metrics": {
                "uptime_seconds": uptime,
                "latency_ms": {"count": count, "p50": p50, "p90": p50,
                               "p99": p50, "max": p50},
            },
        }

    findings = classify(report(100.0, 2.5, 0.1, 50),
                        report(900.0, 7.5, 0.4, 50))
    assert {f.path for f in findings} == {
        "client.cache_hit_responses", "server_metrics.latency_ms.count",
    }
    assert all(f.status == "equal" for f in findings)
    drifted = classify(report(100.0, 2.5, 0.1, 50),
                       report(100.0, 2.5, 0.1, 51))
    assert [f.path for f in drifted if f.is_drift] == [
        "server_metrics.latency_ms.count"
    ]


def test_non_numeric_leaves_compare_exactly():
    assert compare_values("kind", "bench_sweep", "bench_sweep").status == (
        "equal"
    )
    assert compare_values("kind", "bench_sweep", "bench_store").status == (
        "drift"
    )
    assert compare_values("flag", True, False).status == "drift"
    # booleans are not numbers, although Python says True == 1
    assert compare_values("flag", True, 1).status == "drift"
    assert compare_values("n", 1, 1.0).status == "equal"


def test_default_ignores_are_stable():
    # the nightly workflow depends on these staying ignored
    assert "provenance.code_version" in DEFAULT_IGNORES
    assert "host.*" in DEFAULT_IGNORES


def test_provenance_counters_seed_and_config_are_gated():
    # Only the source hash may differ; a stale counter is drift.
    def stamp(version, rta_calls):
        return {"provenance": {"code_version": version, "seed": 0,
                               "config_hash": "abc",
                               "counters": {"rta_calls": rta_calls}}}

    fresh = classify(stamp("src-a", 33286), stamp("src-b", 33286))
    assert {f.path: f.status for f in fresh} == {
        "provenance.config_hash": "equal",
        "provenance.counters.rta_calls": "equal",
        "provenance.seed": "equal",
    }
    stale = classify(stamp("src-a", 36246), stamp("src-b", 33286))
    assert [f.path for f in stale if f.is_drift] == [
        "provenance.counters.rta_calls"
    ]


# -- CLI --------------------------------------------------------------------


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_ok_and_drift_exit_codes(tmp_path, capsys):
    base = _write(tmp_path / "BENCH_x.json",
                  {"kind": "x", "counters": {"calls": 5}})
    same = _write(tmp_path / "BENCH_same.json",
                  {"kind": "x", "counters": {"calls": 5}})
    assert main(["check", "--baseline", base, "--fresh", same]) == 0
    out = capsys.readouterr().out
    assert "ok" in out

    drifted = _write(tmp_path / "BENCH_drift.json",
                     {"kind": "x", "counters": {"calls": 6}})
    assert main(["check", "--baseline", base, "--fresh", drifted]) == 1
    out = capsys.readouterr().out
    assert "DRIFT" in out and "counters.calls" in out


def test_cli_directory_pairing_and_json_report(tmp_path, capsys):
    basedir = tmp_path / "base"
    freshdir = tmp_path / "fresh"
    basedir.mkdir()
    freshdir.mkdir()
    _write(basedir / "BENCH_a.json", {"v": 1})
    _write(freshdir / "BENCH_a.json", {"v": 1, "extra": 2})
    _write(freshdir / "BENCH_only_fresh.json", {"v": 9})
    code = main(["check", "--baseline", str(basedir),
                 "--fresh", str(freshdir), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["artifacts"]) == ["BENCH_a.json"]
    assert report["artifacts"]["BENCH_a.json"]["added"] == ["extra"]
    assert report["drift"] is False


def test_cli_errors_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["check", "--baseline", str(empty),
                 "--fresh", str(empty)]) == 2
    assert "no baseline artifacts" in capsys.readouterr().err
    assert main(["check", "--baseline", str(empty),
                 "--fresh", str(tmp_path / "nowhere")]) == 2

    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{broken")
    good = _write(tmp_path / "BENCH_good.json", {"v": 1})
    assert main(["check", "--baseline", str(bad), "--fresh", good]) == 2

    listy = tmp_path / "BENCH_list.json"
    listy.write_text("[1, 2]")
    assert main(["check", "--baseline", str(listy), "--fresh", good]) == 2


def test_pair_artifacts_by_basename(tmp_path):
    basedir = tmp_path / "b"
    freshdir = tmp_path / "f"
    basedir.mkdir()
    freshdir.mkdir()
    _write(basedir / "BENCH_sweep.json", {})
    _write(freshdir / "BENCH_sweep.json", {})
    pairs = pair_artifacts(str(basedir), str(freshdir))
    assert [p[0] for p in pairs] == ["BENCH_sweep.json"]


def test_missing_fresh_artifact_is_drift(tmp_path, capsys):
    # A nightly step that stops writing its artifact must turn the gate
    # red, not leave the committed baseline silently unchecked.
    basedir = tmp_path / "base"
    freshdir = tmp_path / "fresh"
    basedir.mkdir()
    freshdir.mkdir()
    _write(basedir / "BENCH_a.json", {"v": 1})
    _write(basedir / "BENCH_gone.json", {"v": 1})
    _write(freshdir / "BENCH_a.json", {"v": 1})
    pairs = pair_artifacts(str(basedir), str(freshdir))
    assert [(name, fresh) for name, _, fresh in pairs] == [
        ("BENCH_a.json", str(freshdir / "BENCH_a.json")),
        ("BENCH_gone.json", None),
    ]
    assert main(["check", "--baseline", str(basedir),
                 "--fresh", str(freshdir)]) == 1
    out = capsys.readouterr().out
    assert "BENCH_gone.json: DRIFT" in out
    assert "BENCH_a.json: ok" in out

    assert main(["check", "--baseline", str(basedir),
                 "--fresh", str(freshdir), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["drift"] is True
    assert report["artifacts"]["BENCH_gone.json"]["fresh"] is None
    assert report["artifacts"]["BENCH_gone.json"]["drift"]


def test_committed_baselines_self_compare_clean():
    # The real committed artifacts compared against themselves must be
    # drift-free — guards the ignore list against the actual nightly
    # inputs.
    import os

    results = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "results"
    )
    if not os.path.isdir(results):
        pytest.skip("no committed benchmark artifacts")
    assert main(["check", "--baseline", results, "--fresh", results]) == 0


def test_wrapper_script_exists_and_targets_check():
    import os

    script = os.path.join(
        os.path.dirname(__file__), "..", "..", "scripts",
        "check_bench_drift.py",
    )
    source = open(script).read()
    assert 'main(["check", *sys.argv[1:]])' in source
