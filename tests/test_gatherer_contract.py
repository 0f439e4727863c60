"""The contract every registered gatherer meets.

Each name in ``registry.available("gatherer")`` is created with its
defaults and held to the :class:`~repro.datastructuring.base.Gatherer`
interface: result shape and provenance, indices into the input cloud,
determinism, counted work, grouped views and the shared input validation.
Method-specific accuracy (exact kNN, VEG recall, ball membership) is
tested in the per-method modules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.datastructuring.base import Gatherer, pick_random_centroids

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
    assert (result.num_centroids, result.neighbors_per_centroid) == (12, 8)
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


def test_grouped_views_follow_rows(gatherer, featured_cloud):
    centroids = pick_random_centroids(featured_cloud, 8, seed=4)
    result = gatherer.gather(featured_cloud, centroids, 5)
    coords = result.grouped_coordinates(featured_cloud)
    feats = result.grouped_features(featured_cloud)
    assert np.array_equal(coords, featured_cloud.points[result.neighbor_indices])
    assert np.array_equal(feats, featured_cloud.features[result.neighbor_indices])


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
