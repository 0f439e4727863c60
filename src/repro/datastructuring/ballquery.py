"""Ball-query gathering.

PointNet++'s set-abstraction layers use ball query (all points within a
radius, capped at k, padding with the nearest point when fewer exist) rather
than pure KNN.  The workload profile is the same as brute-force KNN -- every
centroid scans the whole input cloud -- so it shares the counter model; only
the membership rule differs.
"""

from __future__ import annotations

import numpy as np

from repro.datastructuring.base import Gatherer, GatherResult
from repro.datastructuring.knn import knn_counter_model
from repro.geometry.pointcloud import PointCloud
from repro.kernels import iter_distance_chunks


class BallQueryGatherer(Gatherer):
    """Gather up to k points within ``radius`` of each centroid."""

    name = "ballquery"

    def __init__(self, radius: float = 0.2):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self._radius = radius

    @property
    def radius(self) -> float:
        return self._radius

    def gather(
        self,
        cloud: PointCloud,
        centroid_indices: np.ndarray,
        neighbors: int,
    ) -> GatherResult:
        self._validate(cloud, centroid_indices, neighbors)
        centroid_indices = np.asarray(centroid_indices, dtype=np.intp)
        points = cloud.points
        radius_sq = self._radius**2

        rows = np.empty((centroid_indices.shape[0], neighbors), dtype=np.intp)
        truncated = 0
        padded = 0
        column = np.arange(neighbors, dtype=np.intp)
        for start, dist in iter_distance_chunks(points[centroid_indices], points):
            # Stable: the columns are in index order, so ties go to the lower
            # index and every row is ascending by (sq_dist, index).
            order = np.argsort(dist, axis=1, kind="stable")
            sorted_dist = np.take_along_axis(dist, order, axis=1)
            # The sorted distances are ascending, so in-radius membership is
            # a per-row prefix: the whole block reduces to a column-index
            # compare against the per-row in-radius count, padding with the
            # nearest point (PointNet++ convention: groups always have
            # exactly k entries) -- no per-row inner loop.
            inside_counts = (sorted_dist <= radius_sq).sum(axis=1)
            truncated += int((inside_counts > neighbors).sum())
            padded += int((inside_counts < neighbors).sum())
            rows[start : start + dist.shape[0]] = np.where(
                column[None, :] < inside_counts[:, None],
                order[:, :neighbors],
                order[:, :1],
            )

        counters = knn_counter_model(
            cloud.num_points, centroid_indices.shape[0], neighbors
        )
        return GatherResult(
            neighbor_indices=rows,
            centroid_indices=centroid_indices,
            counters=counters,
            method=self.name,
            info={
                "radius": self._radius,
                "groups_truncated": truncated,
                "groups_padded": padded,
            },
        )
