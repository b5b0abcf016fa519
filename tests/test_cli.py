"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import load_taskset, main


@pytest.fixture
def taskfile(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([[1, 4], [2, 8], [6, 16], [8, 32]]))
    return str(path)


@pytest.fixture
def dict_taskfile(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([
        {"cost": 1, "period": 4, "name": "a"},
        {"cost": 2, "period": 8},
    ]))
    return str(path)


class TestLoadTaskset:
    def test_pairs(self, taskfile):
        ts = load_taskset(taskfile)
        assert len(ts) == 4
        assert ts.total_utilization == pytest.approx(1.125)

    def test_dicts(self, dict_taskfile):
        ts = load_taskset(dict_taskfile)
        assert ts[0].name == "a"

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_taskset(str(path))


class TestBoundsCommand:
    def test_prints_bounds(self, taskfile, capsys):
        assert main(["bounds", taskfile]) == 0
        out = capsys.readouterr().out
        assert "HC" in out and "harmonic chains K=1" in out

    def test_platform_verdict(self, taskfile, capsys):
        assert main(["bounds", taskfile, "-m", "2"]) == 0
        out = capsys.readouterr().out
        assert "GUARANTEED" in out


class TestPartitionCommand:
    def test_success_exit_zero(self, taskfile, capsys):
        assert main(["partition", taskfile, "-m", "2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_failure_exit_one(self, taskfile, capsys):
        assert main(["partition", taskfile, "-m", "1"]) == 1
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algorithm",
        ["rmts", "rmts-star", "rmts-light", "spa1", "spa2", "p-rm", "p-edf"],
    )
    def test_all_algorithms_run(self, taskfile, algorithm):
        assert main(["partition", taskfile, "-m", "2", "-a", algorithm]) in (0, 1)


class TestSimulateCommand:
    def test_clean_simulation(self, taskfile, capsys):
        assert main(["simulate", taskfile, "-m", "2"]) == 0
        assert "0 deadline misses" in capsys.readouterr().out

    def test_gantt_output(self, taskfile, capsys):
        assert main(["simulate", taskfile, "-m", "2", "--gantt"]) == 0
        assert "P0 |" in capsys.readouterr().out

    def test_overhead_can_cause_misses(self, taskfile, capsys):
        code = main(["simulate", taskfile, "-m", "2", "--overhead", "2.0"])
        out = capsys.readouterr().out
        assert (code == 1) == ("MISS" in out)


    @pytest.mark.parametrize(
        "flag, value", [("--horizon", "nan"), ("--horizon", "inf"),
                        ("--horizon", "0"), ("--overhead", "nan"),
                        ("--overhead", "inf")],
    )
    def test_non_finite_argument_is_a_clean_error(self, taskfile, capsys,
                                                  flag, value):
        assert main(["simulate", taskfile, "-m", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert "deadline misses" not in captured.out
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "field, index, value, message",
        [
            ("period", 1, float("inf"), "period must be finite"),
            ("cost", 0, float("nan"), "cost must be positive"),
        ],
    )
    def test_non_finite_partition_file_is_a_clean_error(
        self, taskfile, tmp_path, capsys, field, index, value, message
    ):
        saved = tmp_path / "partition.json"
        assert main(["partition", taskfile, "-m", "2", "--save", str(saved)]) == 0
        data = json.loads(saved.read_text())
        data["tasks"][index][field] = value
        saved.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["simulate", "--partition-file", str(saved)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestGenerateCommand:
    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "gen.json"
        assert main([
            "generate", "--n", "6", "--u-norm", "0.5", "-m", "2",
            "--periods", "harmonic", "--light", "-o", str(out_path),
        ]) == 0
        data = json.loads(out_path.read_text())
        assert len(data) == 6

    def test_prints_without_output(self, capsys):
        assert main(["generate", "--n", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 3

    def test_roundtrip_through_partition(self, tmp_path):
        out_path = tmp_path / "gen.json"
        main(["generate", "--n", "8", "--u-norm", "0.6", "-m", "2",
              "-o", str(out_path)])
        assert main(["partition", str(out_path), "-m", "2"]) == 0


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["bounds", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_processors_fail_before_printing(self, taskfile, capsys):
        assert main(["bounds", taskfile, "--processors", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --processors")


class TestBadSweepGrid:
    """Bad ``repro sweep`` grid bounds exit 2 before any grid is built.

    Run as subprocesses with a timeout: a zero or negative step used to
    grow the grid list forever, and a regression must fail, not hang.
    """

    @pytest.mark.parametrize("flags, message", [
        (["--u-step", "0"], "--u-step must be positive"),
        (["--u-step", "-0.05"], "--u-step must be positive"),
        (["--u-step", "nan"], "--u-step must be finite"),
        (["--u-step", "inf"], "--u-step must be finite"),
        (["--u-step", "1e-300"], "utilization levels"),
        (["--u-min", "0.5", "--u-max", "0.5", "--u-step", "1e-300"],
         "utilization levels"),
        (["--u-min", "nan"], "--u-min must be finite"),
        (["--u-max", "nan"], "--u-max must be finite"),
    ])
    def test_exit_2_without_sweeping(self, flags, message):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--samples", "1",
             "--n", "4", "-m", "2", *flags],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert message in proc.stderr


class TestMalformedTaskFiles:
    """Malformed task JSON exits 2 with a one-line structured message —
    the same validation path the admission service uses (PR-2)."""

    @pytest.mark.parametrize("rows", [
        [[-1, 4]],                        # negative cost
        [[0, 4]],                         # zero cost
        [[5, 4]],                         # cost > period
        [[1, "many"]],                    # non-numeric period
        [{"cost": {}, "period": 4}],      # non-numeric cost (TypeError bait)
        [{"period": 4}],                  # missing cost
        [[1, 2, 3]],                      # wrong arity
        [],                               # empty list
        {"cost": 1, "period": 4},         # not a list
    ])
    def test_exit_2_one_line_message(self, tmp_path, capsys, rows):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(rows))
        assert main(["partition", str(path), "-m", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1          # exactly one line
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_invalid_json_text(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["partition", str(path), "-m", "2"]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err and err.count("\n") == 1

    def test_message_names_offending_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[1, 4], [-2, 8]]))
        assert main(["bounds", str(path)]) == 2
        assert "[1].cost" in capsys.readouterr().err

    def test_multiple_errors_summarized(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[-1, 4], [9, 4], [1, "x"]]))
        assert main(["partition", str(path), "-m", "2"]) == 2
        assert "more error" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_registered_with_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.func.__name__ == "cmd_serve"
        assert args.queue_limit == 64
        assert args.analysis_timeout == pytest.approx(5.0)
        assert args.cache_size == 1024

    @pytest.mark.parametrize("flags", [
        ["--analysis-timeout", "nan"],
        ["--analysis-timeout", "0"],
        ["--analysis-timeout", "-1"],
        ["--queue-limit", "0"],
        ["--max-batch", "0"],
    ])
    def test_unusable_settings_exit_2_before_serving(
        self, flags, monkeypatch, capsys
    ):
        from repro.service import server

        served = []
        monkeypatch.setattr(server, "run", lambda config: served.append(config))
        assert main(["serve", "--port", "0", *flags]) == 2
        assert served == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
