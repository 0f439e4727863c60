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
from repro.kernels import grouped_topk, iter_distance_chunks


class BallQueryGatherer(Gatherer):
    """Gather up to k points within ``radius`` of each centroid."""

    name = "ballquery"

    def __init__(self, radius: float = 0.2):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self._radius = radius

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
            # The nearest ``neighbors`` ascending by (sq_dist, index); the
            # in-radius points among them are a prefix, so the group is a
            # column compare against each row's in-radius count, padded
            # with the nearest point (PointNet++ convention: groups always
            # have exactly k entries) -- no per-row inner loop.
            nearest = grouped_topk(dist, neighbors)
            inside_counts = (dist <= radius_sq).sum(axis=1)
            truncated += int((inside_counts > neighbors).sum())
            padded += int((inside_counts < neighbors).sum())
            rows[start : start + dist.shape[0]] = np.where(
                column[None, :] < inside_counts[:, None],
                nearest,
                nearest[:, :1],
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
