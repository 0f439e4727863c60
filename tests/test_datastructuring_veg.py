"""Unit tests for Voxel-Expanded Gathering (VEG)."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.knn import BruteForceKNN
from repro.datastructuring.veg import VoxelExpandedGatherer, _first_k
from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid
from repro.kernels import reference as ref


def mean_recall(veg_result, knn_result) -> float:
    """Average overlap between VEG and exact-KNN neighbor sets."""
    recalls = []
    for veg_row, knn_row in zip(
        veg_result.neighbor_sets(), knn_result.neighbor_sets()
    ):
        recalls.append(len(veg_row & knn_row) / len(knn_row))
    return float(np.mean(recalls))


class TestFunctional:
    def test_shapes_and_validity(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 24, seed=0)
        result = VoxelExpandedGatherer(seed=0).gather(medium_cloud, centroids, 16)
        assert result.neighbor_indices.shape == (24, 16)
        assert result.neighbor_indices.min() >= 0
        assert result.neighbor_indices.max() < medium_cloud.num_points

    def test_neighbors_are_nearby(self, medium_cloud):
        """Gathered points lie within a few voxels of their centroid."""
        centroids = pick_random_centroids(medium_cloud, 16, seed=1)
        result = VoxelExpandedGatherer(depth=4, seed=0).gather(
            medium_cloud, centroids, 12
        )
        grid = VoxelGrid.build(medium_cloud, 4)
        max_cell = float(grid.cell_size().max())
        for row, centroid in enumerate(centroids):
            dist = np.sqrt(
                ((medium_cloud.points[result.neighbor_indices[row]]
                  - medium_cloud.points[centroid]) ** 2).sum(1)
            )
            expansions = result.info["run_stats"].expansions[row]
            reach = (expansions + 1) * max_cell * np.sqrt(3) + 1e-9
            assert (dist <= reach).all()

    def test_high_recall_against_bruteforce(self, cad_cloud):
        """The paper's claim: VEG is an accurate (not approximate) method.

        On surface-like clouds with a few points per leaf, the voxel-shell
        construction recovers the overwhelming majority of the true k nearest
        neighbors; small losses at shell boundaries are possible because the
        inner shells are taken without distance checks.
        """
        centroids = pick_random_centroids(cad_cloud, 32, seed=2)
        veg = VoxelExpandedGatherer(seed=0).gather(cad_cloud, centroids, 16)
        knn = BruteForceKNN().gather(cad_cloud, centroids, 16)
        assert mean_recall(veg, knn) > 0.75

    def test_deeper_grid_higher_workload_reduction(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        shallow = VoxelExpandedGatherer(depth=2).gather(medium_cloud, centroids, 8)
        deep = VoxelExpandedGatherer(depth=5).gather(medium_cloud, centroids, 8)
        assert (
            deep.counters.distance_computations
            <= shallow.counters.distance_computations
        )

    def test_grid_reuse(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 8, seed=0)
        grid = VoxelGrid.build(medium_cloud, 4)
        gatherer = VoxelExpandedGatherer(depth=4, seed=0)
        with_grid = gatherer.gather(medium_cloud, centroids, 8, grid=grid)
        without = gatherer.gather(medium_cloud, centroids, 8)
        assert np.array_equal(with_grid.neighbor_indices, without.neighbor_indices)
        # The row-major arrays are built by the first gather and kept.
        cached = grid.row_major, grid._dense_prefix
        gatherer.gather(medium_cloud, centroids[::-1], 8, grid=grid)
        assert grid.row_major is cached[0] and grid._dense_prefix is cached[1]

    def test_validation(self, small_cloud):
        with pytest.raises(ValueError):
            VoxelExpandedGatherer().gather(small_cloud, np.array([0]), 0)


def test_selection_past_63_bits_takes_the_lexsort():
    """Packed (row, rank, index) keys too wide for an int64 fall back to a
    lexsort of the same triples: same rows, same padding."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 6, size=200)
    ranks = rng.integers(0, 5, size=200)
    points = rng.choice(1000, size=200, replace=False)
    fill = np.arange(100, 108)  # rows 6 and 7 are empty
    packed = _first_k(rows, ranks, points, 1000, 40, fill)
    wide = _first_k(rows, ranks, points, 2**61, 40, fill)
    assert np.array_equal(packed, wide)
    assert (packed[6:] == fill[6:, None]).all()


class TestWorkloadReduction:
    def test_sorts_far_fewer_candidates_than_bruteforce(self, medium_cloud):
        """Figure 15: the sorter sees only the last expansion shell."""
        centroids = pick_random_centroids(medium_cloud, 32, seed=0)
        veg = VoxelExpandedGatherer(seed=0).gather(medium_cloud, centroids, 16)
        knn = BruteForceKNN().gather(medium_cloud, centroids, 16)
        assert veg.counters.compare_ops < knn.counters.compare_ops / 5

    def test_run_stats_consistency(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        result = VoxelExpandedGatherer(seed=0).gather(medium_cloud, centroids, 12)
        run_stats = result.info["run_stats"]
        assert run_stats.num_centroids == 16
        assert (run_stats.voxels_visited >= 1).all()
        covered = run_stats.inner_points + run_stats.last_shell_points >= 12
        assert (covered | (run_stats.last_shell_points == 0)).all()

    def test_inner_points_not_sorted(self, medium_cloud):
        """Points from the inner shells never enter the sorter."""
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        result = VoxelExpandedGatherer(seed=0).gather(medium_cloud, centroids, 12)
        run_stats = result.info["run_stats"]
        normal_path = run_stats.inner_points < 12  # the normal expansion path
        assert np.array_equal(
            run_stats.sorted_candidates[normal_path],
            run_stats.last_shell_points[normal_path],
        )


class TestSemiApproximate:
    def test_no_sorting_workload(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        semi = VoxelExpandedGatherer(semi_approximate=True, seed=0).gather(
            medium_cloud, centroids, 12
        )
        run_stats = semi.info["run_stats"]
        normal_path = run_stats.inner_points < 12
        assert (run_stats.sorted_candidates[normal_path] == 0).all()

    def test_fewer_distance_computations_than_exact(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        exact = VoxelExpandedGatherer(seed=0).gather(medium_cloud, centroids, 12)
        semi = VoxelExpandedGatherer(semi_approximate=True, seed=0).gather(
            medium_cloud, centroids, 12
        )
        assert (
            semi.counters.distance_computations
            <= exact.counters.distance_computations
        )

    def test_still_returns_nearby_points(self, cad_cloud):
        centroids = pick_random_centroids(cad_cloud, 16, seed=0)
        semi = VoxelExpandedGatherer(semi_approximate=True, seed=0).gather(
            cad_cloud, centroids, 16
        )
        knn = BruteForceKNN().gather(cad_cloud, centroids, 16)
        # Semi-approximate keeps most of the true neighbors (the inner shells
        # are still exact).
        assert mean_recall(semi, knn) > 0.5


def lattice(side: int) -> PointCloud:
    axis = np.arange(side, dtype=np.float64)
    return PointCloud(
        points=np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    )


#: Every VEG mode, as ``VoxelExpandedGatherer`` keyword arguments; the
#: ball radius is in voxel edges.
MODES = {
    "exact": {},
    "semi": {"semi_approximate": True, "seed": 5},
    "ball": {"ball_radius": 1.5},
}


def assert_conforms(cloud, centroids, neighbors, depth, mode, grid=None, box=None):
    """Rows, counters and every run-stat column equal ``veg_scalar``'s."""
    kwargs = dict(MODES[mode])
    if "ball_radius" in kwargs:
        edge = (box or cloud.bounds().as_cube()).size.max() / 2**depth
        kwargs["ball_radius"] *= float(edge)
    result = VoxelExpandedGatherer(depth=depth, **kwargs).gather(
        cloud, centroids, neighbors, grid=grid
    )
    rows, counters, stage_stats = ref.veg_scalar(
        cloud, centroids, neighbors, depth=depth, box=box, **kwargs
    )
    assert np.array_equal(result.neighbor_indices, rows)
    assert dataclasses.asdict(result.counters) == dataclasses.asdict(counters)
    run_stats = result.info["run_stats"]
    columns = [getattr(run_stats, f.name).tolist() for f in dataclasses.fields(run_stats)]
    assert list(zip(*columns)) == stage_stats


class TestConformance:
    """Every mode against the per-centroid shell walk, bit for bit.

    Rows list the inner points in ascending index, then the last shell
    ascending by ``(key, index)``, then padding; counters and the stage
    statistics the DSU model prices are compared column by column.
    """

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("neighbors", [16, 40, 64, 100])
    def test_lattice(self, mode, depth, neighbors):
        """On an integer lattice exact distance ties are everywhere, so
        which equidistant candidates fill the last slots is the order's
        tie rule, bit for bit."""
        cloud = lattice(12)
        centroids = pick_random_centroids(cloud, 48, seed=depth)
        assert_conforms(cloud, centroids, neighbors, depth, mode)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_depth_seven_binary_search(self, mode):
        rng = np.random.default_rng(7)
        slab = rng.uniform(-1, 1, size=(3000, 3)) * [1.0, 1.0, 0.03]
        cloud = PointCloud(points=slab)
        centroids = pick_random_centroids(cloud, 40, seed=1)
        assert_conforms(cloud, centroids, 6, 7, mode)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("depth", [1, 3])
    def test_neighbors_equal_to_the_cloud(self, mode, depth):
        """K = N: only the cube over the whole grid holds K points (K > N is
        rejected before gathering), and ball rows are padded."""
        rng = np.random.default_rng(depth)
        cloud = PointCloud(points=rng.uniform(-1, 1, size=(24, 3)))
        assert_conforms(cloud, np.arange(24), 24, depth, mode)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_single_occupied_voxel(self, mode):
        rng = np.random.default_rng(3)
        cloud = PointCloud(points=rng.uniform(0.0, 0.1, size=(50, 3)))
        box = AxisAlignedBox(np.zeros(3), np.full(3, 4.0))
        grid = VoxelGrid.build(cloud, 3, box=box)
        assert grid.num_occupied_voxels == 1
        assert_conforms(cloud, np.arange(0, 50, 3), 12, 3, mode, grid=grid, box=box)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize(
        "name", ["all_duplicates", "plane_z0", "line_y0_z0"]
    )
    def test_degenerate_clouds(self, degenerate_clouds, mode, name):
        cloud = degenerate_clouds[name]
        centroids = pick_random_centroids(cloud, 30, seed=2)
        assert_conforms(cloud, centroids, 10, 4, mode)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_centroids_on_faces_and_corners(self, mode):
        rng = np.random.default_rng(11)
        cloud = PointCloud(points=rng.uniform(-1, 1, size=(800, 3)))
        cloud.points[:8] = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        cloud.points[8:14] = np.concatenate([-np.eye(3), np.eye(3)])  # face centres
        cells = VoxelGrid.build(cloud, 3).linear_cells
        on_boundary = [0, 7]
        x, y, z = cells >> 6, (cells >> 3) & 7, cells & 7
        faces = np.flatnonzero(
            np.isin(x, on_boundary) | np.isin(y, on_boundary) | np.isin(z, on_boundary)
        )
        assert set(range(14)) <= set(faces.tolist())
        assert_conforms(cloud, faces[:60], 20, 3, mode)
