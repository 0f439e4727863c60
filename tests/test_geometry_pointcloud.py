"""Unit tests for repro.geometry.pointcloud."""

import numpy as np
import pytest

from repro.geometry.pointcloud import PointCloud


class TestConstruction:
    def test_basic_shape(self, small_cloud):
        assert small_cloud.num_points == 200
        assert small_cloud.points.shape == (200, 3)
        assert not small_cloud.has_features

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((5, 2)))

    def test_rejects_mismatched_features(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((5, 3)), features=np.zeros((4, 2)))

    def test_feature_channels(self, featured_cloud):
        assert featured_cloud.num_feature_channels == 4
        assert featured_cloud.has_features

    def test_empty_constructor(self):
        cloud = PointCloud(points=np.zeros((0, 3)))
        assert cloud.num_points == 0
        assert not cloud.has_features
        cloud_f = PointCloud(points=np.zeros((0, 3)), features=np.zeros((0, 3)))
        assert cloud_f.num_feature_channels == 3

    def test_coerces_to_float64(self):
        cloud = PointCloud(
            points=[[0, 1, 2], [3, 4, 5]], features=np.ones((2, 1), dtype=np.int32)
        )
        assert cloud.points.dtype == np.float64
        assert cloud.features.dtype == np.float64
        assert cloud.points.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


class TestGeometry:
    def test_bounds_contains_all_points(self, medium_cloud):
        box = medium_cloud.bounds()
        assert np.all(medium_cloud.points >= box.minimum)
        assert np.all(medium_cloud.points <= box.maximum)

    def test_bounds_tight(self, rng):
        points = rng.uniform(-3, 5, size=(50, 3))
        box = PointCloud(points=points).bounds()
        assert np.array_equal(box.minimum, points.min(axis=0))
        assert np.array_equal(box.maximum, points.max(axis=0))

    def test_bounds_cached_identity(self, small_cloud):
        assert small_cloud.bounds() is small_cloud.bounds()

    def test_bounds_empty_raises(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((0, 3))).bounds()

    def test_centroid(self):
        points = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])
        assert np.allclose(PointCloud(points=points).centroid(), [1.0, 2.0, 3.0])

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((0, 3))).centroid()

    def test_select_preserves_order_and_features(self, featured_cloud):
        indices = [5, 2, 9]
        sub = featured_cloud.select(indices)
        assert np.allclose(sub.points, featured_cloud.points[indices])
        assert np.allclose(sub.features, featured_cloud.features[indices])

    def test_select_keeps_frame_metadata(self, small_cloud):
        cloud = PointCloud(points=small_cloud.points, frame_id="f7", timestamp=0.7)
        sub = cloud.select([3, 1])
        assert sub.frame_id == "f7"
        assert sub.timestamp == 0.7
        assert not sub.has_features
