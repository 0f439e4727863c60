"""Unit tests for repro.octree.linear (the Octree-Table)."""

import pytest

from repro.octree.builder import Octree
from repro.octree.linear import OctreeTable


@pytest.fixture
def octree(medium_cloud):
    return Octree.build(medium_cloud, depth=4)


@pytest.fixture
def table(octree):
    return OctreeTable.from_flat(octree)


class TestStructure:
    def test_one_entry_per_node(self, octree, table):
        assert len(table) == octree.num_nodes

    def test_leaf_count_matches(self, octree, table):
        assert table.num_leaves == octree.num_leaves

    def test_root_entry(self, table):
        root = table.root()
        assert root.level == 0
        assert not root.is_leaf or len(table) == 1

    def test_children_links_valid(self, table):
        for entry in table.entries:
            for child in table.children_of(entry):
                assert child.level == entry.level + 1
                assert child.code >> 3 == entry.code

    def test_leaf_lookup_by_code(self, octree, table):
        for code in octree.leaf_codes[:20]:
            entry = table.leaf_entry_for_code(int(code))
            assert entry is not None
            assert entry.is_leaf
            assert entry.code == code

    def test_missing_leaf_lookup(self, table):
        assert table.leaf_entry_for_code(-1) is None


class TestAddressRanges:
    def test_ranges_are_contiguous_in_sfc_order(self, table):
        leaves = table.leaf_entries()
        cursor = 0
        for leaf in leaves:
            start, end = leaf.address_range
            assert start == cursor
            assert end >= start
            cursor = end

    def test_ranges_cover_all_points(self, octree, table):
        total = sum(leaf.num_points for leaf in table.leaf_entries())
        assert total == octree.cloud.num_points

    def test_leaf_point_counts_match_octree(self, octree, table):
        for code in octree.leaf_codes:
            entry = table.leaf_entry_for_code(int(code))
            assert entry.num_points == octree.leaf(int(code)).num_points


class TestFootprint:
    def test_entry_bits_positive_and_reasonable(self, table):
        bits = table.entry_bits()
        assert 16 < bits < 1024

    def test_total_bits_scales_with_entries(self, table):
        assert table.total_bits() == table.entry_bits() * len(table)
        assert table.total_megabits() == pytest.approx(table.total_bits() / 1e6)

    def test_larger_cloud_larger_table(self):
        from repro.datasets.synthetic import uniform_cube

        small_table = OctreeTable.from_flat(
            Octree.build(uniform_cube(200, seed=0), depth=4)
        )
        big_table = OctreeTable.from_flat(
            Octree.build(uniform_cube(4000, seed=0), depth=4)
        )
        assert big_table.total_bits() > small_table.total_bits()

    @pytest.mark.parametrize("depth", [1, 5, 8, 21])
    def test_footprint_from_counts_matches_the_built_table(self, depth):
        """``entry_bits_for`` prices a table from the octree's counts alone
        (one row per node), which is how the engine prices every frame."""
        from repro.datasets.synthetic import lidar_scene

        octree = Octree.build(lidar_scene(3000, seed=depth), depth=depth)
        rows = octree.num_nodes
        bits = OctreeTable.entry_bits_for(depth, rows, octree.cloud.num_points)
        table = OctreeTable.from_flat(octree)
        assert bits == table.entry_bits()
        assert rows * bits == table.total_bits()
