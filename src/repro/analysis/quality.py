"""Sampling-quality metrics.

The paper's argument for OIS over random sampling is information quality:
"the accuracy of random sampling is low and cannot be fully trusted", while
OIS "can achieve the same accuracy as the FPS method" (Section VII-C).  With
no training loop in the reproduction, quality is quantified geometrically
with the metrics the down-sampling literature uses:

* **coverage radius** -- the largest distance from any input point to its
  nearest kept point (Hausdorff distance from the cloud to the sample);
* **Chamfer distance** -- the mean such distance, less sensitive to single
  outliers;
* **voxel occupancy recall** -- the fraction of occupied voxels (at a chosen
  resolution) that still contain at least one kept point, i.e. how much of
  the object's spatial structure survives the down-sampling.

``compare_samplers`` runs a set of samplers over one cloud and returns all
three, which the sampling-quality ablation benchmark prints.  The default
sampler set is whatever the component registry knows about
(:func:`registered_samplers`), so a newly registered sampler shows up in the
quality ablation without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid
from repro.kernels import iter_distance_chunks
from repro.sampling.base import Sampler, SamplingResult


@dataclass(frozen=True)
class SamplingQuality:
    """Geometric quality metrics of one down-sampling result."""

    method: str
    num_samples: int
    coverage_radius: float
    chamfer_distance: float
    voxel_occupancy_recall: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "coverage_radius": self.coverage_radius,
            "chamfer_distance": self.chamfer_distance,
            "voxel_occupancy_recall": self.voxel_occupancy_recall,
        }


def _nearest_sample_distances(cloud: PointCloud, sampled: PointCloud) -> np.ndarray:
    nearest = np.empty(cloud.num_points)
    for start, sq_dist in iter_distance_chunks(cloud.points, sampled.points):
        nearest[start : start + sq_dist.shape[0]] = np.sqrt(sq_dist).min(axis=1)
    return nearest


def evaluate_sampling(
    cloud: PointCloud,
    result: SamplingResult,
    occupancy_depth: int | None = None,
) -> SamplingQuality:
    """Compute the quality metrics of one sampling result on its input cloud.

    ``occupancy_depth`` defaults to the deepest grid at which the *input*
    cloud occupies no more voxels than there are kept samples, so a perfect
    sampler can reach a recall of 1.0 and the metric discriminates between
    samplers instead of saturating at the ``num_samples / occupied_voxels``
    ceiling.
    """
    if occupancy_depth is None:
        occupancy_depth = 1
        for depth in range(2, 9):
            if VoxelGrid.build(cloud, depth).num_occupied_voxels > result.num_samples:
                break
            occupancy_depth = depth
    nearest = _nearest_sample_distances(cloud, result.sampled)

    full_grid = VoxelGrid.build(cloud, occupancy_depth)
    sample_grid = VoxelGrid.build(
        result.sampled, occupancy_depth, box=full_grid.box
    )
    occupied = set(int(c) for c in full_grid.occupied_codes())
    kept = set(int(c) for c in sample_grid.occupied_codes())
    recall = len(occupied & kept) / max(1, len(occupied))

    return SamplingQuality(
        method=result.method,
        num_samples=result.num_samples,
        coverage_radius=float(nearest.max()),
        chamfer_distance=float(nearest.mean()),
        voxel_occupancy_recall=float(recall),
    )


def registered_samplers(
    seed: int = 0, include: Optional[Iterable[str]] = None
) -> Dict[str, Sampler]:
    """Instantiate registry samplers for a quality comparison.

    ``include`` restricts (and orders) the set; by default every sampler the
    component registry knows about is constructed with ``seed``.
    """
    from repro import registry

    names = list(include) if include is not None else registry.available("sampler")
    return {name: registry.create("sampler", name, seed=seed) for name in names}


def compare_samplers(
    cloud: PointCloud,
    samplers: Optional[Mapping[str, Sampler]] = None,
    num_samples: int = 1024,
    occupancy_depth: int | None = None,
) -> Dict[str, SamplingQuality]:
    """Evaluate several samplers on the same cloud and sample budget.

    ``samplers`` defaults to every registered sampler
    (:func:`registered_samplers`).
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if samplers is None:
        samplers = registered_samplers()
    results: Dict[str, SamplingQuality] = {}
    for label, sampler in samplers.items():
        sampling = sampler.sample(cloud, num_samples)
        results[label] = evaluate_sampling(
            cloud, sampling, occupancy_depth=occupancy_depth
        )
    return results


def quality_table_rows(
    qualities: Mapping[str, SamplingQuality]
) -> Sequence[Sequence[object]]:
    """Rows for :func:`repro.analysis.reporting.format_table`."""
    return [
        [
            label,
            quality.coverage_radius,
            quality.chamfer_distance,
            quality.voxel_occupancy_recall,
        ]
        for label, quality in qualities.items()
    ]
