"""Unit tests for brute-force KNN and ball query gathering."""

import numpy as np
import pytest

from repro.datastructuring.ballquery import BallQueryGatherer
from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.knn import BruteForceKNN, knn_counter_model


def reference_knn(points: np.ndarray, centroid: int, k: int) -> set[int]:
    """Straightforward reference implementation for cross-checking."""
    dist = ((points - points[centroid]) ** 2).sum(axis=1)
    return set(np.argsort(dist, kind="stable")[:k].tolist())


class TestBruteForceKNN:
    def test_shapes(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 16, seed=0)
        result = BruteForceKNN().gather(medium_cloud, centroids, neighbors=8)
        assert result.neighbor_indices.shape == (16, 8)
        assert result.num_centroids == 16

    def test_matches_reference(self, small_cloud):
        centroids = np.array([0, 7, 42, 199])
        result = BruteForceKNN().gather(small_cloud, centroids, neighbors=5)
        for row, centroid in enumerate(centroids):
            expected_dist = sorted(
                ((small_cloud.points - small_cloud.points[centroid]) ** 2).sum(1)
            )[4]
            got = result.neighbor_indices[row]
            got_dist = ((small_cloud.points[got] - small_cloud.points[centroid]) ** 2).sum(1)
            # All returned neighbors are within the distance of the true 5th
            # nearest neighbor (ties may swap identities, not distances).
            assert (got_dist <= expected_dist + 1e-12).all()

    def test_neighbors_sorted_by_distance(self, small_cloud):
        centroids = np.array([3])
        result = BruteForceKNN().gather(small_cloud, centroids, neighbors=10)
        dist = (
            (small_cloud.points[result.neighbor_indices[0]] - small_cloud.points[3]) ** 2
        ).sum(1)
        assert (np.diff(dist) >= -1e-12).all()

    def test_include_self_default(self, small_cloud):
        centroids = np.array([5])
        result = BruteForceKNN().gather(small_cloud, centroids, neighbors=4)
        assert 5 in result.neighbor_indices[0]

    def test_exclude_self(self, small_cloud):
        centroids = np.array([5])
        result = BruteForceKNN(include_self=False).gather(
            small_cloud, centroids, neighbors=4
        )
        assert 5 not in result.neighbor_indices[0]

    def test_validation(self, small_cloud):
        with pytest.raises(ValueError):
            BruteForceKNN().gather(small_cloud, np.array([0]), neighbors=0)
        with pytest.raises(ValueError):
            BruteForceKNN().gather(small_cloud, np.array([]), neighbors=4)
        with pytest.raises(ValueError):
            BruteForceKNN().gather(small_cloud, np.array([10_000]), neighbors=4)


class TestKNNCounterModel:
    def test_quadratic_workload(self):
        counters = knn_counter_model(num_points=4096, num_centroids=512, neighbors=32)
        assert counters.distance_computations == 512 * 4095
        assert counters.compare_ops == 512 * 4095

    def test_counters_attached_to_result(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 8, seed=0)
        result = BruteForceKNN().gather(medium_cloud, centroids, neighbors=4)
        assert result.counters.distance_computations == 8 * (medium_cloud.num_points - 1)


class TestBallQuery:
    def test_all_within_radius_or_padded(self, medium_cloud):
        radius = 0.8
        centroids = pick_random_centroids(medium_cloud, 12, seed=0)
        result = BallQueryGatherer(radius=radius).gather(
            medium_cloud, centroids, neighbors=8
        )
        for row, centroid in enumerate(centroids):
            dist = np.sqrt(
                (
                    (medium_cloud.points[result.neighbor_indices[row]]
                     - medium_cloud.points[centroid]) ** 2
                ).sum(1)
            )
            # Every gathered point is inside the ball, or the group was padded
            # with the nearest point (which is also inside or the closest).
            assert (dist <= radius + 1e-9).all() or result.info["groups_padded"] > 0

    def test_padding_counted(self, small_cloud):
        result = BallQueryGatherer(radius=1e-6).gather(
            small_cloud, np.array([0, 1]), neighbors=4
        )
        assert result.info["groups_padded"] == 2
        # Padded groups still have exactly k entries.
        assert result.neighbor_indices.shape == (2, 4)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            BallQueryGatherer(radius=0.0)

    def test_same_counter_model_as_knn(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 4, seed=0)
        bq = BallQueryGatherer(radius=0.5).gather(medium_cloud, centroids, neighbors=4)
        knn = BruteForceKNN().gather(medium_cloud, centroids, neighbors=4)
        assert (
            bq.counters.distance_computations == knn.counters.distance_computations
        )
