"""Brute-force k-nearest-neighbor gathering (the traditional DS method).

For every central point, compute the distance to every other input point and
keep the k nearest.  This is what PCN frameworks do on CPUs/GPUs and what
PointACC's Mapping Unit accelerates with a full-range bitonic sort; it is the
reference against which VEG's workload reduction (Figure 15) is measured.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import OpCounters
from repro.datastructuring.base import Gatherer, GatherResult
from repro.geometry.pointcloud import PointCloud
from repro.kernels import grouped_topk, iter_distance_chunks


def knn_counter_model(
    num_points: int, num_centroids: int, neighbors: int
) -> OpCounters:
    """Analytic counts of brute-force KNN gathering.

    Per centroid: ``N - 1`` distance computations (reads of every other
    point), plus a top-k selection modelled as a single ranking pass over the
    ``N - 1`` distances (one comparison each -- the same unit the paper uses
    when it says the sorter of PointACC works "over the entire input point
    cloud").
    """
    counters = OpCounters()
    per_centroid = max(0, num_points - 1)
    counters.distance_computations = num_centroids * per_centroid
    counters.host_memory_reads = num_centroids * per_centroid
    counters.compare_ops = num_centroids * per_centroid
    counters.host_memory_writes = num_centroids * neighbors
    return counters


class BruteForceKNN(Gatherer):
    """Exact KNN gathering by full distance scan."""

    name = "knn-bruteforce"

    def __init__(self, include_self: bool = True):
        """``include_self``: whether the centroid itself may appear among its
        neighbors (PointNet++ grouping keeps it)."""
        self._include_self = include_self

    def gather(
        self,
        cloud: PointCloud,
        centroid_indices: np.ndarray,
        neighbors: int,
    ) -> GatherResult:
        self._validate(cloud, centroid_indices, neighbors)
        centroid_indices = np.asarray(centroid_indices, dtype=np.intp)
        points = cloud.points
        centroids = points[centroid_indices]

        # Chunked over centroids so the (M, N) distance buffers stay inside
        # the shared kernel memory budget.
        neighbor_rows = np.empty(
            (centroid_indices.shape[0], neighbors), dtype=np.intp
        )
        for start, dist in iter_distance_chunks(centroids, points):
            stop = start + dist.shape[0]
            if not self._include_self:
                dist[np.arange(stop - start), centroid_indices[start:stop]] = np.inf
            # grouped_topk lists the k nearest ascending by (sq_dist, index),
            # so the nearest appears first (useful for ball-query-style caps).
            neighbor_rows[start:stop] = grouped_topk(dist, neighbors)

        counters = knn_counter_model(
            cloud.num_points, centroid_indices.shape[0], neighbors
        )
        return GatherResult(
            neighbor_indices=neighbor_rows,
            centroid_indices=centroid_indices,
            counters=counters,
            method=self.name,
        )
