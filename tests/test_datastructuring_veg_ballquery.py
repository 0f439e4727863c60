"""Unit tests for the ball-query mode of Voxel-Expanded Gathering."""

import numpy as np
import pytest

from repro.datastructuring.ballquery import BallQueryGatherer
from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.veg import VoxelExpandedGatherer


RADIUS = 0.6


class TestVEGBallQuery:
    def test_all_gathered_points_inside_ball_or_padded(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        result = VoxelExpandedGatherer(ball_radius=RADIUS, seed=0).gather(
            medium_cloud, centroids, 12
        )
        for row, centroid in enumerate(centroids):
            group = result.neighbor_indices[row]
            dist = np.sqrt(
                ((medium_cloud.points[group] - medium_cloud.points[centroid]) ** 2).sum(1)
            )
            inside = dist <= RADIUS + 1e-9
            # Either every entry is in the ball, or the tail is padding that
            # repeats an in-ball (or centroid) index.
            if not inside.all():
                unique = np.unique(group[~inside])
                assert unique.size <= 1

    def test_matches_bruteforce_ballquery_membership(self, cad_cloud):
        """The VEG ball-query returns in-ball points, like the exact method."""
        centroids = pick_random_centroids(cad_cloud, 16, seed=1)
        veg = VoxelExpandedGatherer(ball_radius=0.3, seed=0).gather(
            cad_cloud, centroids, 16
        )
        exact = BallQueryGatherer(radius=0.3).gather(cad_cloud, centroids, 16)
        overlaps = []
        for veg_row, exact_row in zip(veg.neighbor_sets(), exact.neighbor_sets()):
            overlaps.append(len(veg_row & exact_row) / len(exact_row))
        assert float(np.mean(overlaps)) > 0.6

    def test_scans_far_fewer_candidates_than_exact(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        veg = VoxelExpandedGatherer(ball_radius=RADIUS, depth=4, seed=0).gather(
            medium_cloud, centroids, 12
        )
        exact = BallQueryGatherer(radius=RADIUS).gather(medium_cloud, centroids, 12)
        assert veg.counters.distance_computations < exact.counters.distance_computations

    def test_ball_radius_recorded(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 4, seed=0)
        result = VoxelExpandedGatherer(ball_radius=RADIUS, seed=0).gather(
            medium_cloud, centroids, 8
        )
        assert result.info["ball_radius"] == RADIUS

    def test_tiny_radius_pads_with_centroid(self, small_cloud):
        centroids = np.array([0, 1])
        result = VoxelExpandedGatherer(ball_radius=1e-9, seed=0).gather(
            small_cloud, centroids, 4
        )
        # With an (almost) empty ball the group degenerates to the centroid
        # itself (or its own voxel-mates), repeated to K entries.
        assert result.neighbor_indices.shape == (2, 4)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            VoxelExpandedGatherer(ball_radius=0.0)

    def test_expansion_bounded_by_radius_not_input_size(self, medium_cloud):
        """The number of shells visited follows the radius, not the cloud."""
        centroids = pick_random_centroids(medium_cloud, 8, seed=0)
        result = VoxelExpandedGatherer(ball_radius=0.2, depth=4, seed=0).gather(
            medium_cloud, centroids, 8
        )
        run_stats = result.info["run_stats"]
        grid_cell = 1.0  # depth-4 grid over a ~10-unit cloud -> cells ~0.7
        for expansions in run_stats.expansions:
            assert expansions <= int(np.ceil(0.2 / 0.05)) + 1
