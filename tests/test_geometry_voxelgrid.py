"""Unit tests for repro.geometry.voxelgrid."""

import itertools

import numpy as np
import pytest

from repro.analysis.quality import compare_samplers, registered_samplers
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid, suggest_depth
from repro.kernels import decode_cells, lookup_sorted, shell_offsets
from repro.kernels import reference as ref


class TestVoxelGrid:
    def test_every_point_bucketed_once(self, medium_cloud):
        grid = VoxelGrid.build(medium_cloud, depth=4)
        total = sum(len(grid.points_in_voxel(c)) for c in grid.occupied_codes())
        assert total == medium_cloud.num_points

    def test_voxel_of_point_consistent_with_buckets(self, small_cloud):
        grid = VoxelGrid.build(small_cloud, depth=3)
        for index in range(small_cloud.num_points):
            code = grid.voxel_of_point(index)
            assert index in grid.points_in_voxel(code)

    def test_points_in_empty_voxel(self, small_cloud):
        grid = VoxelGrid.build(small_cloud, depth=6)
        all_codes = set(int(c) for c in grid.occupied_codes())
        empty_code = next(c for c in range(grid.resolution**3) if c not in all_codes)
        assert grid.points_in_voxel(empty_code).size == 0

    def test_occupancy_histogram_sums_to_points(self, medium_cloud):
        grid = VoxelGrid.build(medium_cloud, depth=4)
        assert sum(grid.occupancy_histogram().values()) == medium_cloud.num_points

    def test_resolution(self, small_cloud):
        assert VoxelGrid.build(small_cloud, depth=5).resolution == 32

    def test_shell_codes_radius_zero(self, medium_cloud):
        grid = VoxelGrid.build(medium_cloud, depth=4)
        code = int(grid.occupied_codes()[0])
        assert grid.shell_codes(code, 0) == [code]

    def test_shell_codes_disjoint_and_occupied(self, medium_cloud):
        grid = VoxelGrid.build(medium_cloud, depth=4)
        code = int(grid.occupied_codes()[len(grid.occupied_codes()) // 2])
        shells = [set(grid.shell_codes(code, r)) for r in range(3)]
        # Shells are pairwise disjoint.
        assert not (shells[0] & shells[1])
        assert not (shells[1] & shells[2])
        occupied = set(int(c) for c in grid.occupied_codes())
        for shell in shells:
            assert shell <= occupied

    def test_shell_negative_radius_rejected(self, small_cloud):
        grid = VoxelGrid.build(small_cloud, depth=3)
        with pytest.raises(ValueError):
            grid.shell_codes(0, -1)

    def test_points_in_shells_cover_neighborhood(self, medium_cloud):
        grid = VoxelGrid.build(medium_cloud, depth=3)
        code = grid.voxel_of_point(0)
        gathered = []
        for _radius, indices in grid.points_in_shells(code, max_radius=grid.resolution):
            gathered.extend(indices.tolist())
        assert sorted(gathered) == list(range(medium_cloud.num_points))

    def test_cell_size(self, small_cloud):
        grid = VoxelGrid.build(small_cloud, depth=2)
        assert np.allclose(grid.cell_size(), grid.box.size / 4)


def boundary_cells(resolution: int) -> np.ndarray:
    """Every corner, edge-midpoint and face-centre cell of the grid."""
    mid = resolution // 2
    ends = (0, resolution - 1)
    cells = set()
    for axes in itertools.product((ends, (mid,)), repeat=3):
        cells.update(itertools.product(*axes))
    return np.array(sorted(cells), dtype=np.int64)


def occupied_cells(grid: VoxelGrid, rng: np.random.Generator) -> np.ndarray:
    """Cells of up to 40 occupied voxels of ``grid``."""
    picks = rng.choice(
        grid.unique_codes, size=min(40, grid.num_occupied_voxels), replace=False
    )
    return decode_cells(picks, grid.depth)


class TestSlotTable:
    """``shell_positions_batch`` by address agrees with the binary search."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_shell_positions_equal_lookup_sorted(self, depth, radius):
        rng = np.random.default_rng(depth)
        cloud = PointCloud(points=rng.uniform(-1, 1, size=(3000, 3)))
        grid = VoxelGrid.build(cloud, depth)
        cells = np.concatenate(
            [boundary_cells(grid.resolution), occupied_cells(grid, rng)]
        )

        positions, found = grid.shell_positions_batch(cells, radius)
        codes, in_bounds = ref.stencil_codes_dense(
            cells, shell_offsets(radius), depth
        )
        expected, occupied = lookup_sorted(grid.unique_codes, codes)
        assert np.array_equal(found, in_bounds & occupied)
        assert np.array_equal(positions[found], expected[found])
        assert positions.min() >= 0
        # Depths past the table bound keep the binary search.
        assert ("slot_table" in vars(grid)) == (depth <= 6)

    def test_table_marks_empty_cells(self, small_cloud):
        grid = VoxelGrid.build(small_cloud, 3)
        table = grid.slot_table
        assert table.shape == (8**3,) and table.dtype == np.int32
        assert np.array_equal(
            np.flatnonzero(table >= 0), grid.unique_codes
        )
        assert np.array_equal(
            table[grid.unique_codes], np.arange(grid.num_occupied_voxels)
        )

    def test_build_downsampling_and_quality_never_allocate_it(
        self, monkeypatch, medium_cloud
    ):
        def refuse(grid):
            raise AssertionError("slot table allocated")

        monkeypatch.setattr(VoxelGrid, "slot_table", property(refuse))
        grid = VoxelGrid.build(medium_cloud, 5)
        grid.points_in_voxel(int(grid.unique_codes[0]))
        compare_samplers(
            medium_cloud,
            registered_samplers(include=["voxelgrid", "random"]),
            num_samples=128,
        )
        # The patch is live: a shell lookup is what builds the table.
        with pytest.raises(AssertionError, match="slot table"):
            grid.shell_positions_batch(np.zeros((1, 3), dtype=np.int64), 1)


class TestSuggestDepth:
    def test_monotone_in_points(self):
        assert suggest_depth(1000) <= suggest_depth(100000) <= suggest_depth(10000000)

    def test_small_cloud_shallow(self):
        assert suggest_depth(64) <= 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            suggest_depth(0)
