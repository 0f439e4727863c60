"""Sampler interface and result record."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.metrics import OpCounters
from repro.geometry.pointcloud import PointCloud
from repro.kernels import iter_distance_chunks, pairwise_sq_dists


@dataclass
class SamplingResult:
    """Output of one down-sampling run.

    Attributes
    ----------
    indices:
        Indices (into the input cloud) of the K selected points, in pick
        order.
    counters:
        Operation counts of the run, including any index-construction cost
        (e.g. the octree build for OIS).
    sampled:
        The selected sub-cloud (convenience view).
    method:
        Name of the sampler that produced the result.
    info:
        Method-specific extras (octree depth, build stats, ...).
    """

    indices: np.ndarray
    counters: OpCounters
    sampled: PointCloud
    method: str
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_samples(self) -> int:
        return int(self.indices.shape[0])

    def min_pairwise_distance(self) -> float:
        """Smallest distance between any two selected points.

        A coverage-quality proxy: FPS-style samplers maximise it, random
        sampling does not.  Quadratic in K, so only meant for analysis and
        tests, not for hot paths.
        """
        pts = self.sampled.points
        if pts.shape[0] < 2:
            return 0.0
        dist = np.sqrt(pairwise_sq_dists(pts, pts))
        dist[np.diag_indices_from(dist)] = np.inf
        return float(dist.min())

    def coverage_radius(self, cloud: PointCloud) -> float:
        """Largest distance from any input point to its nearest sample.

        The Hausdorff-style metric the FPS literature uses to quantify
        information loss; smaller is better.  Evaluated in chunks to bound
        memory.
        """
        worst = 0.0
        for _, sq_dist in iter_distance_chunks(cloud.points, self.sampled.points):
            nearest = np.sqrt(sq_dist).min(axis=1)
            worst = max(worst, float(nearest.max()))
        return worst


class Sampler(abc.ABC):
    """Common interface of all down-sampling methods."""

    #: Human-readable name used in reports and figures.
    name: str = "sampler"

    @abc.abstractmethod
    def sample(self, cloud: PointCloud, num_samples: int) -> SamplingResult:
        """Down-sample ``cloud`` to ``num_samples`` points."""

    def _validate(self, cloud: PointCloud, num_samples: int) -> None:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if cloud.num_points == 0:
            raise ValueError("cannot sample from an empty cloud")
        if num_samples > cloud.num_points:
            raise ValueError(
                f"requested {num_samples} samples from a cloud of "
                f"{cloud.num_points} points"
            )

    def _result(
        self,
        cloud: PointCloud,
        indices: np.ndarray,
        counters: OpCounters,
        info: Optional[Dict[str, Any]] = None,
    ) -> SamplingResult:
        indices = np.asarray(indices, dtype=np.intp)
        return SamplingResult(
            indices=indices,
            counters=counters,
            sampled=cloud.select(indices),
            method=self.name,
            info=info or {},
        )
