"""Unit tests for Voxel-Expanded Gathering (VEG)."""

import dataclasses

import numpy as np
import pytest

from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.knn import BruteForceKNN
from repro.datastructuring.veg import VoxelExpandedGatherer
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
            stats = result.info["run_stats"].per_centroid[row]
            reach = (stats.expansions + 1) * max_cell * np.sqrt(3) + 1e-9
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

    def test_validation(self, small_cloud):
        with pytest.raises(ValueError):
            VoxelExpandedGatherer().gather(small_cloud, np.array([0]), 0)


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
        assert len(run_stats.per_centroid) == 16
        for stats in run_stats.per_centroid:
            assert stats.voxels_visited >= 1
            assert stats.inner_points + stats.last_shell_points >= 12 or (
                stats.last_shell_points == 0
            )

    def test_inner_points_not_sorted(self, medium_cloud):
        """Points from the inner shells never enter the sorter."""
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        result = VoxelExpandedGatherer(seed=0).gather(medium_cloud, centroids, 12)
        run_stats = result.info["run_stats"]
        for stats in run_stats.per_centroid:
            if stats.inner_points < 12:  # the normal expansion path
                assert stats.sorted_candidates == stats.last_shell_points


class TestSemiApproximate:
    def test_no_sorting_workload(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        semi = VoxelExpandedGatherer(semi_approximate=True, seed=0).gather(
            medium_cloud, centroids, 12
        )
        run_stats = semi.info["run_stats"]
        normal_path = [s for s in run_stats.per_centroid if s.inner_points < 12]
        assert all(s.sorted_candidates == 0 for s in normal_path)

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


class TestLastShellTieOrder:
    """On an integer lattice exact distance ties are everywhere.

    The batched gatherer keeps ``veg_scalar``'s per-centroid ``np.argsort``
    of the last shell's distances, so which of several equidistant
    candidates fill the last slots is the reference's choice, bit for bit.
    """

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("neighbors", [16, 40, 64, 100])
    def test_rows_equal_scalar_reference(self, depth, neighbors):
        axis = np.arange(12, dtype=np.float64)
        lattice = PointCloud(
            points=np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
            .reshape(-1, 3)
        )
        centroids = pick_random_centroids(lattice, 48, seed=depth)
        result = VoxelExpandedGatherer(depth=depth).gather(
            lattice, centroids, neighbors
        )
        rows, counters, stage_stats = ref.veg_scalar(
            lattice, centroids, neighbors, depth=depth
        )
        assert np.array_equal(result.neighbor_indices, rows)
        assert dataclasses.asdict(result.counters) == dataclasses.asdict(counters)
        assert [
            dataclasses.astuple(stats)
            for stats in result.info["run_stats"].per_centroid
        ] == stage_stats
