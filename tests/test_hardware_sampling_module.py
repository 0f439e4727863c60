"""Unit tests for the Down-sampling Unit hardware model (Figure 7)."""

import pytest

from repro.hardware.sampling_module import DownSamplingUnit


class TestDownSamplingUnit:
    def test_cycles_scale_with_depth(self):
        unit = DownSamplingUnit()
        assert unit.cycles_per_sample(8) == 2 * unit.cycles_per_sample(4)

    def test_fewer_modules_serialise_evaluations(self):
        full = DownSamplingUnit(num_modules=8)
        half = DownSamplingUnit(num_modules=4)
        assert half.cycles_per_sample(6) > full.cycles_per_sample(6)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DownSamplingUnit().cycles_per_sample(0)

    def test_frame_latency_scales_with_samples(self):
        unit = DownSamplingUnit()
        assert unit.seconds_per_frame(8, 4096) > unit.seconds_per_frame(8, 1024)

    def test_counters_match_ois_model_shape(self):
        unit = DownSamplingUnit()
        counters = unit.counters_per_frame(octree_depth=8, num_samples=1024)
        assert counters.node_visits == 1024 * 8
        assert counters.hamming_ops == 1024 * 8 * 8
        assert counters.host_memory_reads == 1024

    def test_hardware_speedup_vs_cpu_in_paper_range(self):
        """Section VII-C: the hardware unit is 5.95x-6.24x faster than the
        CPU implementation of the same walk.  The model lands in a band
        around that range for the depths the benchmarks use."""
        unit = DownSamplingUnit()
        for depth in (6, 8, 10):
            speedup = unit.hardware_speedup_vs_cpu(depth, 4096)
            assert 4.0 < speedup < 9.0

    def test_point_fetch_optional(self):
        unit = DownSamplingUnit()
        with_fetch = unit.seconds_per_frame(8, 1024, include_point_fetch=True)
        without = unit.seconds_per_frame(8, 1024, include_point_fetch=False)
        assert with_fetch > without
