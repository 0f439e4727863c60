"""Unit tests for repro.geometry.voxelgrid."""

import itertools

import numpy as np
import pytest

from repro.analysis.quality import compare_samplers, registered_samplers
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid, suggest_depth
from repro.kernels import decode_cells


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


class TestCubeAddressing:
    """Row-major prefix counts and cube runs against brute-force cell sets."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 6, 7, 8])
    def test_cells_before_counts_points_and_occupied_cells(self, depth):
        rng = np.random.default_rng(depth)
        cloud = PointCloud(points=rng.uniform(-1, 1, size=(3000, 3)))
        grid = VoxelGrid.build(cloud, depth)
        cells = grid.linear_cells
        queries = np.concatenate(
            [rng.integers(0, grid.resolution**3 + 1, size=200), [0, grid.resolution**3]]
        )
        points, voxels = grid.cells_before(queries)
        assert points.tolist() == [int((cells < q).sum()) for q in queries]
        assert voxels.tolist() == [
            int((np.unique(cells) < q).sum()) for q in queries
        ]
        assert np.array_equal(grid.points_before(queries), points)
        # Depths past the dense bound keep the binary search.
        assert ("_dense_prefix" in vars(grid)) == (depth <= 6)

    def test_row_major_order_is_stable_by_linear_cell(self, medium_cloud):
        grid = VoxelGrid.build(medium_cloud, 4)
        order, cells, starts = grid.row_major
        assert np.array_equal(order, np.argsort(grid.linear_cells, kind="stable"))
        assert np.array_equal(cells, np.unique(grid.linear_cells))
        assert np.array_equal(np.diff(starts), np.bincount(grid.linear_cells)[cells])
        ix, iy, iz = decode_cells(grid.codes, 4).T
        assert np.array_equal(grid.linear_cells, (ix * 16 + iy) * 16 + iz)

    @pytest.mark.parametrize("depth", [2, 4, 7])
    @pytest.mark.parametrize("radius", [0, 1, 2, 5])
    def test_cube_runs_hold_the_cube_points(self, depth, radius):
        rng = np.random.default_rng(depth + radius)
        cloud = PointCloud(points=rng.uniform(-1, 1, size=(2000, 3)))
        grid = VoxelGrid.build(cloud, depth)
        centers = boundary_cells(grid.resolution)
        lo, hi = grid.cube_runs(centers.T, radius)
        assert lo.shape == ((2 * radius + 1) ** 2, centers.shape[0])
        assert (hi >= lo).all()
        start, stop = grid.points_before(lo), grid.points_before(hi)
        cells = decode_cells(grid.codes, depth)
        order = grid.row_major[0]
        for i, center in enumerate(centers):
            inside = np.abs(cells - center).max(axis=1) <= radius
            gathered = np.concatenate(
                [order[a:b] for a, b in zip(start[:, i], stop[:, i])]
            )
            assert np.array_equal(np.sort(gathered), np.flatnonzero(inside))

    def test_build_downsampling_and_quality_never_allocate_them(
        self, monkeypatch, medium_cloud
    ):
        def refuse(grid):
            raise AssertionError("row-major arrays allocated")

        monkeypatch.setattr(VoxelGrid, "row_major", property(refuse))
        monkeypatch.setattr(VoxelGrid, "_dense_prefix", property(refuse))
        grid = VoxelGrid.build(medium_cloud, 5)
        grid.points_in_voxel(int(grid.unique_codes[0]))
        compare_samplers(
            medium_cloud,
            registered_samplers(include=["voxelgrid", "random"]),
            num_samples=128,
        )
        # The patch is live: a prefix read is what builds them.
        with pytest.raises(AssertionError, match="row-major"):
            grid.cells_before(np.zeros(1, dtype=np.int64))


class TestSuggestDepth:
    def test_monotone_in_points(self):
        assert suggest_depth(1000) <= suggest_depth(100000) <= suggest_depth(10000000)

    def test_small_cloud_shallow(self):
        assert suggest_depth(64) <= 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            suggest_depth(0)
