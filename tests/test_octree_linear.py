"""Unit tests for repro.octree.linear (the Octree-Table)."""

import numpy as np
import pytest

from repro.octree.builder import Octree
from repro.octree.linear import OctreeTable


@pytest.fixture
def octree(medium_cloud):
    return Octree.build(medium_cloud, depth=4)


@pytest.fixture
def table(octree):
    return OctreeTable.from_flat(octree)


def children(table, row):
    lo, hi = table.child_bounds[row], table.child_bounds[row + 1]
    return table.child_rows[lo:hi], table.child_octants[lo:hi]


def leaf_rows(table):
    """The leaf rows, ascending by m-code (SFC order)."""
    rows = np.flatnonzero(table.leaf_flags)
    return rows[np.argsort(table.codes[rows], kind="stable")]


class TestStructure:
    def test_one_entry_per_node(self, octree, table):
        assert len(table) == octree.num_nodes

    def test_leaf_count_matches(self, octree, table):
        assert int(table.leaf_flags.sum()) == octree.num_leaves

    def test_root_entry(self, table):
        root = table.root_index
        assert table.levels[root] == 0
        assert not table.leaf_flags[root] or len(table) == 1

    def test_children_links_valid(self, table):
        for row in range(len(table)):
            rows, octants = children(table, row)
            assert np.all(np.diff(octants) > 0)
            for child, octant in zip(rows, octants):
                assert table.levels[child] == table.levels[row] + 1
                assert table.codes[child] == (table.codes[row] << 3) | octant
            assert rows.shape[0] == 0 or not table.leaf_flags[row]

    def test_leaf_lookup_by_code(self, octree, table):
        rows = leaf_rows(table)
        assert np.array_equal(table.codes[rows], octree.leaf_codes)
        assert np.all(table.levels[rows] == octree.depth)

    def test_missing_leaf_lookup(self, octree, table):
        """An empty voxel has no leaf row."""
        empty = np.setdiff1d(np.arange(8**octree.depth), octree.leaf_codes)
        assert empty.shape[0] > 0
        assert not np.isin(empty, table.codes[table.leaf_flags]).any()


class TestAddressRanges:
    def test_ranges_are_contiguous_in_sfc_order(self, table):
        cursor = 0
        for row in leaf_rows(table):
            start, end = table.addr_starts[row], table.addr_ends[row]
            assert start == cursor
            assert end >= start
            cursor = end

    def test_ranges_cover_all_points(self, octree, table):
        rows = leaf_rows(table)
        total = int((table.addr_ends[rows] - table.addr_starts[rows]).sum())
        assert total == octree.cloud.num_points == table.num_points

    def test_leaf_point_counts_match_octree(self, octree, table):
        rows = leaf_rows(table)
        assert np.array_equal(
            table.addr_ends[rows] - table.addr_starts[rows],
            octree.leaf_point_counts(),
        )
        internal = ~table.leaf_flags
        assert not table.addr_starts[internal].any()
        assert not table.addr_ends[internal].any()


class TestFootprint:
    def test_entry_bits_positive_and_reasonable(self, table):
        bits = table.entry_bits()
        assert 16 < bits < 1024

    def test_total_bits_scales_with_entries(self, table):
        assert table.total_bits() == table.entry_bits() * len(table)
        assert table.total_megabits() == pytest.approx(table.total_bits() / 1e6)

    def test_larger_cloud_larger_table(self):
        from clouds import uniform_cube

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
