"""Unit tests for repro.hardware.memory (incl. the Figure 13 footprint model)."""

import pytest

from repro.hardware.memory import (
    HostMemoryModel,
    OnChipMemoryModel,
    fps_onchip_megabits,
    ois_onchip_megabits,
)


class TestHostMemoryModel:
    def test_zero_bytes_free(self):
        assert HostMemoryModel().transfer_seconds(0) == 0.0

    def test_bandwidth_term(self):
        model = HostMemoryModel(bandwidth_bytes_per_s=1e9, access_latency_s=0.0)
        assert model.transfer_seconds(1e9) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HostMemoryModel().transfer_seconds(-1)


class TestOnChipMemoryModel:
    def test_allocate_and_free(self):
        budget = OnChipMemoryModel(capacity_megabits=65.0)
        budget.allocate("octree_table", 10.0)
        assert budget.used_megabits() == pytest.approx(10.0)
        assert budget.free_megabits() == pytest.approx(55.0)

    def test_over_capacity_raises(self):
        budget = OnChipMemoryModel(capacity_megabits=65.0)
        with pytest.raises(MemoryError):
            budget.allocate("raw_frame", 100.0)

    def test_reallocation_replaces(self):
        budget = OnChipMemoryModel(capacity_megabits=65.0)
        budget.allocate("x", 30.0)
        budget.allocate("x", 40.0)
        assert budget.used_megabits() == pytest.approx(40.0)

    def test_fills_to_exact_capacity(self):
        budget = OnChipMemoryModel(capacity_megabits=65.0)
        budget.allocate("a", 60.0)
        budget.allocate("b", 5.0)
        assert budget.free_megabits() == pytest.approx(0.0)
        with pytest.raises(MemoryError):
            budget.allocate("c", 1.0)


class TestFigure13Footprints:
    def test_fps_overflows_arria10_beyond_half_million_points(self):
        """The paper: frames beyond ~5x10^5 points exceed the 65 Mb device."""
        assert fps_onchip_megabits(500_000) > 60.0
        assert fps_onchip_megabits(600_000) > 65.0
        assert fps_onchip_megabits(100_000) < 65.0

    def test_ois_fits_even_for_million_point_frames(self):
        """The paper: OIS needs ~10 Mb even for 10^6-point frames."""
        # A million-point frame yields roughly 300k octree-table entries.
        footprint = ois_onchip_megabits(
            num_table_entries=300_000, entry_bits=40, num_samples=16_384
        )
        assert footprint < 20.0

    def test_memory_saving_ratio_in_paper_range(self):
        """Figure 13 reports 12x-22x on-chip memory saving."""
        for num_points, entries in [(200_000, 60_000), (1_000_000, 300_000)]:
            fps = fps_onchip_megabits(num_points)
            ois = ois_onchip_megabits(
                num_table_entries=entries, entry_bits=40, num_samples=4096
            )
            assert 5.0 < fps / ois < 40.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fps_onchip_megabits(0)
        with pytest.raises(ValueError):
            ois_onchip_megabits(0, 40, 100)
