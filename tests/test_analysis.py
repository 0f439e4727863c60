"""Unit tests for the analysis helpers (breakdown, realtime, reporting, sweep)."""

import pytest

from repro.analysis.breakdown import e2e_breakdown_for_benchmark
from repro.analysis.realtime import evaluate_realtime
from repro.analysis.reporting import format_table
from repro.analysis.sweep import ParameterSweep


class TestBreakdown:
    def test_preprocessing_dominates_on_cpu(self):
        """The Figure 3 observation for large raw frames."""
        for benchmark in ("modelnet40", "s3dis", "kitti"):
            result = e2e_breakdown_for_benchmark(benchmark, platform="cpu")
            assert result.preprocessing_fraction() > 0.5

    def test_fraction_grows_with_raw_size(self):
        small = e2e_breakdown_for_benchmark("modelnet40", platform="cpu")
        large = e2e_breakdown_for_benchmark("kitti", platform="cpu")
        assert large.preprocessing_fraction() > small.preprocessing_fraction()

    def test_gpu_platform(self):
        result = e2e_breakdown_for_benchmark("kitti", platform="gpu")
        assert result.preprocessing_fraction() > 0.5
        assert result.platform == "gpu"

    def test_fractions_sum_to_one(self):
        result = e2e_breakdown_for_benchmark("s3dis", platform="cpu")
        assert result.preprocessing_fraction() + result.inference_fraction() == pytest.approx(1.0)

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            e2e_breakdown_for_benchmark("kitti", platform="tpu")

    def test_raw_points_override(self):
        default = e2e_breakdown_for_benchmark("kitti", platform="cpu")
        bigger = e2e_breakdown_for_benchmark("kitti", platform="cpu", raw_points=5_000_000)
        assert bigger.preprocessing_seconds > default.preprocessing_seconds


class TestRealtime:
    def test_fast_pipeline_meets_realtime(self):
        report = evaluate_realtime([0.04] * 20, sensor_rate_hz=10.0)
        assert report.meets_realtime
        assert report.achieved_fps > report.sensor_rate_hz

    def test_slow_pipeline_fails(self):
        report = evaluate_realtime([0.3] * 20, sensor_rate_hz=10.0)
        assert not report.meets_realtime
        assert report.max_backlog > 1

    def test_statistics(self):
        report = evaluate_realtime([0.01, 0.02, 0.03], sensor_rate_hz=10.0)
        assert report.mean_frame_latency_s == pytest.approx(0.02)
        assert report.p99_frame_latency_s <= 0.03 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_realtime([], sensor_rate_hz=10.0)
        with pytest.raises(ValueError):
            evaluate_realtime([-0.1], sensor_rate_hz=10.0)


class TestReporting:
    def test_format_table_contains_cells(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in text and "2.5" in text and "x" in text

    def test_format_table_formats_floats_only(self):
        text = format_table(
            ["n", "s"], [[3, 2.34567], [True, 8.0]], float_format="{:.2f}"
        )
        assert "2.35" in text and "8.00" in text
        assert "3.00" not in text and "True" in text

    def test_format_table_aligns_columns(self):
        text = format_table(["name", "x"], [["kitti", 1.5], ["s3dis", 12.25]])
        lines = text.splitlines()
        assert lines[1] == "------+------"
        assert len({len(line) for line in lines}) == 1
        assert [line.index("|") for line in lines if "|" in line] == [6, 6, 6]

    def test_format_table_without_title_starts_with_headers(self):
        text = format_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[0] == "a | b"


class TestSweep:
    def test_cartesian_product(self):
        sweep = ParameterSweep(parameters={"n": [1, 2], "k": [10, 20, 30]})
        results = sweep.run(lambda n, k: {"product": n * k})
        assert len(results) == 6
        assert results[0].metrics["product"] == 10

    def test_rows_and_headers(self):
        sweep = ParameterSweep(parameters={"n": [1, 2]})
        sweep.run(lambda n: {"double": 2 * n})
        rows = sweep.rows(["double"])
        assert rows[1] == [2, 4]
        assert sweep.headers(["double"]) == ["n", "double"]
