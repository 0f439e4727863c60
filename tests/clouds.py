"""Synthetic clouds only the tests use: a structureless control and a
highly non-uniform one.

Importable from any test module (``from clouds import ...``); the seeds the
tests pass pin the exact points.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pointcloud import PointCloud


def uniform_cube(num_points: int, extent: float = 1.0, seed: int = 0) -> PointCloud:
    """Points uniformly distributed inside a cube."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-extent / 2, extent / 2, size=(num_points, 3))
    return PointCloud(points=points)


def gaussian_clusters(
    num_points: int,
    num_clusters: int = 8,
    extent: float = 10.0,
    cluster_std: float = 0.3,
    seed: int = 0,
) -> PointCloud:
    """A mixture of Gaussian blobs (highly non-uniform occupancy)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-extent / 2, extent / 2, size=(num_clusters, 3))
    assignment = rng.integers(num_clusters, size=num_points)
    points = centers[assignment] + rng.normal(scale=cluster_std, size=(num_points, 3))
    return PointCloud(points=points)
