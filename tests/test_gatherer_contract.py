"""The contract every registered gatherer meets.

Each name in ``registry.available("gatherer")`` is created with its
defaults and held to the :class:`~repro.datastructuring.base.Gatherer`
interface: result shape and provenance, indices into the input cloud,
determinism, counted work, rows that ignore point features and the shared
input validation.  Method-specific accuracy (exact kNN, VEG recall, ball
membership) is tested in the per-method modules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.datastructuring.ballquery import BallQueryGatherer
from repro.datastructuring.base import Gatherer, pick_random_centroids
from repro.datastructuring.knn import BruteForceKNN
from repro.geometry.pointcloud import PointCloud
from repro.kernels import reference as ref

GATHERER_NAMES = registry.available("gatherer")


@pytest.fixture(params=GATHERER_NAMES)
def gatherer(request) -> Gatherer:
    return registry.create("gatherer", request.param)


def test_builtin_gatherers_registered():
    assert {"knn", "ballquery", "veg"} <= set(GATHERER_NAMES)


def test_result_shape_and_provenance(gatherer, medium_cloud):
    centroids = pick_random_centroids(medium_cloud, 12, seed=0)
    result = gatherer.gather(medium_cloud, centroids, 8)
    assert result.neighbor_indices.shape == (12, 8)
    assert result.num_centroids == 12
    assert np.array_equal(result.centroid_indices, centroids)
    assert result.method == gatherer.name


def test_indices_point_into_the_cloud(gatherer, cad_cloud):
    centroids = pick_random_centroids(cad_cloud, 20, seed=1)
    rows = gatherer.gather(cad_cloud, centroids, 6).neighbor_indices
    assert np.issubdtype(rows.dtype, np.integer)
    assert rows.min() >= 0 and rows.max() < cad_cloud.num_points


def test_deterministic(gatherer, medium_cloud):
    centroids = pick_random_centroids(medium_cloud, 10, seed=2)
    first = gatherer.gather(medium_cloud, centroids, 8)
    second = gatherer.gather(medium_cloud, centroids, 8)
    assert np.array_equal(first.neighbor_indices, second.neighbor_indices)


def test_counts_distance_work(gatherer, medium_cloud):
    centroids = pick_random_centroids(medium_cloud, 10, seed=3)
    counters = gatherer.gather(medium_cloud, centroids, 8).counters
    assert counters.distance_computations > 0


def test_features_do_not_move_the_rows(gatherer, featured_cloud):
    centroids = pick_random_centroids(featured_cloud, 8, seed=4)
    bare = PointCloud(points=featured_cloud.points)
    with_features = gatherer.gather(featured_cloud, centroids, 5).neighbor_indices
    without = gatherer.gather(bare, centroids, 5).neighbor_indices
    assert np.array_equal(with_features, without)


@pytest.mark.parametrize(
    "centroids,neighbors",
    [
        (np.array([0, 1]), 0),  # no neighbors asked for
        (np.array([0, 1]), 201),  # more neighbors than points
        (np.array([], dtype=np.intp), 4),  # no centroids
        (np.array([0, 200]), 4),  # centroid index past the cloud
    ],
    ids=["zero_neighbors", "too_many_neighbors", "no_centroids", "bad_centroid"],
)
def test_rejects_invalid_requests(gatherer, small_cloud, centroids, neighbors):
    with pytest.raises(ValueError):
        gatherer.gather(small_cloud, centroids, neighbors)


@pytest.mark.parametrize("neighbors", [4, 10, 24])
def test_ballquery_lattice_ties_in_distance_index_order(neighbors):
    """On an integer lattice every distance shell is a run of exact ties:
    ball query lists a centroid's in-radius points ascending by
    ``(sq_dist, index)`` (padded with the nearest), as its reference does.
    4 and 10 cut a tie shell short; 24 pads every row."""
    axis = np.arange(6, dtype=np.float64)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    cloud = PointCloud(points=points)
    centroids = np.arange(0, points.shape[0], 7)
    radius = 1.5  # shells at squared distance 0, 1 and 2
    rows = BallQueryGatherer(radius=radius).gather(cloud, centroids, neighbors)
    for row, centroid in zip(rows.neighbor_indices, centroids):
        sq_dist = ((points - points[centroid]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(points.shape[0]), sq_dist))
        inside = order[sq_dist[order] <= radius**2][:neighbors]
        expected = np.full(neighbors, order[0])
        expected[: inside.shape[0]] = inside
        assert np.array_equal(row, expected), centroid
    scalar_rows, _, _ = ref.ballquery_scalar(cloud, centroids, neighbors, radius)
    assert np.array_equal(rows.neighbor_indices, scalar_rows)


@pytest.mark.parametrize("neighbors", [1, 4, 7, 19, 30])
@pytest.mark.parametrize("include_self", [True, False])
def test_knn_lattice_ties_in_distance_index_order(neighbors, include_self):
    """Brute-force kNN lists each centroid's ``neighbors`` nearest ascending
    by ``(sq_dist, index)``: on an integer lattice the cut falls inside a
    tie shell for most of these ``neighbors``, and the lower indices win."""
    axis = np.arange(6, dtype=np.float64)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    cloud = PointCloud(points=points)
    centroids = np.arange(0, points.shape[0], 5)
    rows = BruteForceKNN(include_self=include_self).gather(
        cloud, centroids, neighbors
    )
    for row, centroid in zip(rows.neighbor_indices, centroids):
        sq_dist = ((points - points[centroid]) ** 2).sum(axis=1)
        if not include_self:
            sq_dist[centroid] = np.inf
        order = np.lexsort((np.arange(points.shape[0]), sq_dist))
        assert np.array_equal(row, order[:neighbors]), centroid
