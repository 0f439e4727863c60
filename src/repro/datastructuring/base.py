"""Gatherer interface and result record for the data structuring step."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.core.metrics import OpCounters
from repro.geometry.pointcloud import PointCloud


@dataclass
class GatherResult:
    """Output of one data structuring run.

    Attributes
    ----------
    neighbor_indices:
        ``(M, K)`` array; row ``i`` holds the indices (into the input cloud)
        of the K gathered neighbors of central point ``i``.
    centroid_indices:
        ``(M,)`` indices of the central points themselves.
    counters:
        Operation counts of the run.
    method:
        Name of the gatherer.
    info:
        Method-specific extras (e.g. VEG per-stage statistics).
    """

    neighbor_indices: np.ndarray
    centroid_indices: np.ndarray
    counters: OpCounters
    method: str
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_centroids(self) -> int:
        return int(self.neighbor_indices.shape[0])

    def neighbor_sets(self) -> list[set[int]]:
        """Neighbor index rows as sets (order-independent comparisons)."""
        return [set(int(i) for i in row) for row in self.neighbor_indices]


class Gatherer(abc.ABC):
    """Common interface of all data structuring (neighbor gathering) methods."""

    name: str = "gatherer"

    @abc.abstractmethod
    def gather(
        self,
        cloud: PointCloud,
        centroid_indices: np.ndarray,
        neighbors: int,
    ) -> GatherResult:
        """Gather ``neighbors`` points around each centroid."""

    def _validate(
        self, cloud: PointCloud, centroid_indices: np.ndarray, neighbors: int
    ) -> None:
        if neighbors <= 0:
            raise ValueError("neighbors must be positive")
        if cloud.num_points < neighbors:
            raise ValueError(
                f"cloud has {cloud.num_points} points, cannot gather "
                f"{neighbors} neighbors"
            )
        centroid_indices = np.asarray(centroid_indices)
        if centroid_indices.ndim != 1 or centroid_indices.shape[0] == 0:
            raise ValueError("centroid_indices must be a non-empty 1-D array")
        if centroid_indices.min() < 0 or centroid_indices.max() >= cloud.num_points:
            raise ValueError("centroid index out of range")


def pick_random_centroids(
    cloud: PointCloud, num_centroids: int, seed: int = 0
) -> np.ndarray:
    """Random central-point selection.

    The paper's Figure 14 comparison uses random central-point picking for
    all accelerators because Mesorasi does; this helper is the shared
    implementation.
    """
    if num_centroids <= 0:
        raise ValueError("num_centroids must be positive")
    if num_centroids > cloud.num_points:
        raise ValueError("cannot pick more centroids than points")
    rng = np.random.default_rng(seed)
    return rng.choice(cloud.num_points, size=num_centroids, replace=False)
