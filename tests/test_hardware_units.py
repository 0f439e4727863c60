"""Unit tests for the Octree-build Unit and interconnect models."""

import pytest

from repro.hardware.interconnect import InterconnectModel
from repro.hardware.octree_build_unit import OctreeBuildUnit
from repro.octree.builder import Octree, OctreeBuildStats


class TestOctreeBuildUnit:
    def test_latency_scales_with_points(self):
        unit = OctreeBuildUnit()
        small = unit.seconds_for_frame(10_000, depth=7)
        large = unit.seconds_for_frame(1_000_000, depth=7)
        assert large > 50 * small

    def test_counters_from_real_build(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        unit = OctreeBuildUnit()
        counters = unit.counters_for(octree.stats)
        assert counters.host_memory_reads == medium_cloud.num_points
        assert counters.compare_ops > medium_cloud.num_points

    def test_seconds_positive(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        assert OctreeBuildUnit().seconds_for(octree.stats) > 0

    def test_accepts_profile_object(self):
        from repro.hardware.devices import get_device

        unit = OctreeBuildUnit(cpu=get_device("xeon_w2255"))
        stats = OctreeBuildStats(
            num_points=1000,
            depth=5,
            num_nodes=400,
            num_leaves=300,
            host_memory_reads=1000,
            host_memory_writes=1400,
        )
        assert unit.seconds_for(stats) > 0

    def test_million_point_build_in_milliseconds_range(self):
        """The CPU octree build of a KITTI-scale frame is a few to tens of
        milliseconds -- far below the seconds-scale FPS it replaces."""
        seconds = OctreeBuildUnit().seconds_for_frame(1_200_000, depth=9)
        assert 1e-3 < seconds < 0.2


class TestInterconnect:
    def test_zero_transfer(self):
        assert InterconnectModel().transfer_seconds(0) == 0.0

    def test_setup_plus_bandwidth(self):
        link = InterconnectModel(bandwidth_bytes_per_s=1e9, setup_latency_s=1e-5)
        assert link.transfer_seconds(1e9) == pytest.approx(1.0 + 1e-5)

    def test_octree_table_ships_as_one_bulk_transfer(self):
        link = InterconnectModel(bandwidth_bytes_per_s=1e9, setup_latency_s=1e-5)
        table_bits = 8 * 10**6
        assert link.octree_table_transfer_seconds(table_bits) == pytest.approx(
            1e-5 + 1e-3
        )
        assert link.octree_table_transfer_seconds(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            InterconnectModel().transfer_seconds(-1)
