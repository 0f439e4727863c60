"""Tests for the benchmark tooling: trajectory CSV/SVG, the baseline gate
and the reachability probe's report.

The harness itself (``benchmarks/run_all.py``) is exercised end to end by
CI's bench-smoke job; these tests cover the pure logic -- history parsing,
CSV flattening, SVG rendering, and the per-scenario regression budget /
min_speedup floor gates -- on synthetic fixtures so they stay fast.
"""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


to_csv = _load("to_csv")
plot_trajectory = _load("plot_trajectory")
run_all = _load("run_all")
reach = _load("reach")


def _record(sha, mode="quick", **speedups):
    return {
        "git_sha": sha,
        "generated_unix": 1_700_000_000,
        "mode": mode,
        "numpy_version": "2.4.6",
        "all_identical": True,
        "geomean_speedup": 2.0,
        "speedups": speedups,
    }


@pytest.fixture
def history_path(tmp_path):
    path = tmp_path / "history.jsonl"
    records = [
        _record("aaa1111", fps_sampling=5.0, ois_sampling=10.0),
        _record("bbb2222", mode="full", fps_sampling=6.0),
        _record("ccc3333", fps_sampling=7.5, ois_sampling=12.0,
                ois_wavefront=3.7),
    ]
    lines = [json.dumps(r) for r in records]
    lines.insert(2, "{truncated")  # a killed run's partial line
    path.write_text("\n".join(lines) + "\n")
    return path


class TestToCsv:
    def test_load_skips_malformed_lines(self, history_path, capsys):
        records = to_csv.load_history(history_path)
        assert [r["git_sha"] for r in records] == [
            "aaa1111", "bbb2222", "ccc3333"
        ]
        assert "skipped" in capsys.readouterr().err

    def test_mode_filter(self, history_path):
        quick = to_csv.load_history(history_path, mode="quick")
        assert [r["git_sha"] for r in quick] == ["aaa1111", "ccc3333"]

    def test_missing_file_is_empty(self, tmp_path):
        assert to_csv.load_history(tmp_path / "none.jsonl") == []

    def test_columns_are_sorted_union(self, history_path):
        records = to_csv.load_history(history_path)
        assert to_csv.scenario_columns(records) == [
            "fps_sampling", "ois_sampling", "ois_wavefront"
        ]

    def test_csv_round_trip(self, history_path, tmp_path):
        out = tmp_path / "history.csv"
        rc = to_csv.main(
            ["to_csv", "--history", str(history_path), "--output", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert rows[0]["fps_sampling"] == "5.0"
        # Scenarios absent from a run leave the cell empty, not 0.
        assert rows[1]["ois_sampling"] == ""
        assert rows[2]["ois_wavefront"] == "3.7"
        assert rows[2]["git_sha"] == "ccc3333"

    def test_empty_history_fails_cleanly(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = to_csv.main(["to_csv", "--history", str(empty)])
        assert rc == 1


class TestPlotTrajectory:
    def test_renders_every_scenario(self, history_path, tmp_path):
        out = tmp_path / "trajectory.svg"
        rc = plot_trajectory.main(
            ["plot", "--history", str(history_path), "--output", str(out)]
        )
        assert rc == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        for name in ("fps_sampling", "ois_sampling", "ois_wavefront"):
            assert name in svg
        assert "polyline" in svg  # multi-run scenarios draw lines

    def test_only_filter(self, history_path, tmp_path):
        out = tmp_path / "t.svg"
        rc = plot_trajectory.main(
            ["plot", "--history", str(history_path), "--output", str(out),
             "--only", "wavefront"]
        )
        assert rc == 0
        svg = out.read_text()
        assert "ois_wavefront" in svg
        assert "fps_sampling" not in svg

    def test_single_run_draws_markers(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps(_record("aaa1111", fps_sampling=5.0)) + "\n")
        out = tmp_path / "t.svg"
        assert plot_trajectory.main(
            ["plot", "--history", str(path), "--output", str(out)]
        ) == 0
        assert "circle" in out.read_text()


def _scenario(name, speedup, identical=True, min_speedup=None):
    return {
        "name": name,
        "stage": "sampling",
        "speedup": speedup,
        "identical": identical,
        "contract": "bit_identical",
        "min_speedup": min_speedup,
        "reference_seconds": 1.0,
        "vectorized_seconds": 1.0 / max(speedup, 1e-9),
        "params": {},
    }


def _report(*scenarios):
    return {
        "mode": "quick",
        "scenarios": list(scenarios),
        "summary": {
            "num_scenarios": len(scenarios),
            "all_identical": all(s["identical"] for s in scenarios),
            "min_speedup": min((s["speedup"] for s in scenarios), default=None),
            "geomean_speedup": 1.0,
        },
    }


def _baseline(tmp_path, quick):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"quick": quick}))
    return path


class TestBaselineGate:
    def test_entry_normalises_legacy_bare_number(self):
        entry = run_all._baseline_entry(4.0)
        assert entry["speedup"] == 4.0
        assert entry["budget"] == run_all.DEFAULT_REGRESSION_BUDGET
        assert entry["min_speedup"] is None

    def test_per_scenario_budget_tightens_the_gate(self, tmp_path):
        baseline = _baseline(
            tmp_path, {"a": {"speedup": 10.0, "budget": 1.25}}
        )
        # 10/1.25 = 8.0: a 7.9x run fails, though the legacy 2x global
        # tripwire (10/2 = 5.0) would have let it through.
        failures = run_all.check_baseline(_report(_scenario("a", 7.9)), baseline)
        assert len(failures) == 1 and "budget" in failures[0]
        assert run_all.check_baseline(_report(_scenario("a", 8.1)), baseline) == []

    def test_baseline_floor_binds_without_in_code_floor(self, tmp_path):
        baseline = _baseline(
            tmp_path, {"a": {"speedup": 4.0, "budget": 2.0, "min_speedup": 3.0}}
        )
        failures = run_all.check_baseline(_report(_scenario("a", 2.5)), baseline)
        assert any("floor" in f for f in failures)

    def test_strictest_floor_wins(self, tmp_path):
        baseline = _baseline(
            tmp_path, {"a": {"speedup": 4.0, "budget": 2.0, "min_speedup": 1.0}}
        )
        report = _report(_scenario("a", 2.5, min_speedup=3.0))
        failures = run_all.check_baseline(report, baseline)
        assert any("3.0x" in f for f in failures)

    def test_contract_violation_reported(self, tmp_path):
        baseline = _baseline(tmp_path, {"a": {"speedup": 1.0}})
        failures = run_all.check_baseline(
            _report(_scenario("a", 5.0, identical=False)), baseline
        )
        assert any("contract" in f for f in failures)

    def test_unknown_scenario_passes_relative_gate(self, tmp_path):
        """A scenario not yet in the baseline only faces its in-code floor."""
        baseline = _baseline(tmp_path, {})
        assert run_all.check_baseline(_report(_scenario("new", 0.9)), baseline) == []
        failures = run_all.check_baseline(
            _report(_scenario("new", 0.9, min_speedup=1.5)), baseline
        )
        assert any("floor" in f for f in failures)

    def test_missing_baseline_file_fails(self, tmp_path):
        failures = run_all.check_baseline(
            _report(_scenario("a", 1.0)), tmp_path / "missing.json"
        )
        assert any("missing" in f for f in failures)

    def test_markdown_table_marks_floor_breaches(self, tmp_path):
        baseline = _baseline(
            tmp_path, {"a": {"speedup": 4.0, "budget": 2.0, "min_speedup": 3.0}}
        )
        table = run_all.markdown_speedup_table(
            _report(_scenario("a", 2.5)), baseline
        )
        assert "BELOW FLOOR" in table

    def test_checked_in_baseline_covers_every_scenario(self):
        """Both modes of the committed baseline record an entry -- with an
        explicit budget and floor -- for every scenario the harness builds."""
        baseline = json.loads(run_all.BASELINE_PATH.read_text())
        names = {s.name for s in run_all.build_scenarios(quick=True)}
        assert "ois_wavefront" in names
        for mode in ("full", "quick"):
            recorded = baseline[mode]
            assert set(recorded) == names
            for name, entry in recorded.items():
                assert set(entry) == {"speedup", "budget", "min_speedup"}, name


class TestScenarioTeardown:
    @staticmethod
    def scenario(calls, run=lambda: (1, None)):
        return run_all.Scenario(
            name="probe",
            stage="serving",
            params={},
            run_vectorized=run,
            run_reference=lambda: (1, None),
            collect_metrics=lambda: calls.append("metrics"),
            teardown=lambda: calls.append("teardown"),
        )

    def test_teardown_runs_once_after_collect_metrics(self):
        calls = []
        report = run_all.run_scenarios([self.scenario(calls)], quick=True)
        assert report["scenarios"][0]["identical"]
        assert calls == ["metrics", "teardown"]

    def test_teardown_runs_when_a_run_raises(self):
        calls = []

        def fail():
            raise RuntimeError("run failed")

        with pytest.raises(RuntimeError, match="run failed"):
            run_all.run_scenarios([self.scenario(calls, fail)], quick=True)
        assert calls == ["teardown"]

    def test_every_scenario_caching_a_server_tears_it_down(self):
        # The chaos scenario starts and shuts a fresh server per round.
        cached = {
            s.name: s.teardown is not None
            for s in run_all.build_scenarios(quick=True)
            if s.name.startswith("serving_") and s.name != "serving_chaos_poisson"
        }
        assert len(cached) == 5 and all(cached.values()), cached


class TestReachFailedRuns:
    def test_failed_runs_are_named_with_their_status_in_run_order(self):
        statuses = {"e2e": 0, "repro serve --chaos": 1, "examples": 0, "pytest": 2}
        assert reach.failed_runs(statuses) == [
            "repro serve --chaos: exit 1",
            "pytest: exit 2",
        ]
        assert reach.failed_runs({"e2e": 0}) == []

    def test_main_names_the_failed_run_after_the_totals(self, monkeypatch, capsys):
        monkeypatch.setattr(
            reach, "run_everything", lambda: {"e2e": 0, "repro serve --chaos": 1}
        )
        monkeypatch.setattr(reach, "report", lambda reached: {})
        assert reach.main() == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-1].startswith("total")
        assert err.splitlines() == ["failed run: repro serve --chaos: exit 1"]
