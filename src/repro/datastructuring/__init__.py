"""Data structuring (neighbor gathering) methods for the inference phase.

Before the feature computation of a PCN layer, each central point must
gather its neighborhood to form the "input feature map" (Section II/VI).
This subpackage provides:

* :class:`~repro.datastructuring.knn.BruteForceKNN` -- the traditional
  all-pairs k-nearest-neighbor gathering.
* :class:`~repro.datastructuring.ballquery.BallQueryGatherer` -- ball-query
  gathering, the other common PCN neighbor definition.
* :class:`~repro.datastructuring.veg.VoxelExpandedGatherer` -- the paper's
  Voxel-Expanded Gathering (VEG) method, which uses octree voxel shells to
  shrink the sorting workload to the last expansion shell only.
"""

from repro import registry
from repro.datastructuring.ballquery import BallQueryGatherer
from repro.datastructuring.base import Gatherer, GatherResult
from repro.datastructuring.knn import BruteForceKNN, knn_counter_model
from repro.datastructuring.veg import VEGStageStats, VoxelExpandedGatherer

registry.register("gatherer", "knn", BruteForceKNN)
registry.register("gatherer", "ballquery", BallQueryGatherer)
registry.register("gatherer", "veg", VoxelExpandedGatherer)

__all__ = [
    "BallQueryGatherer",
    "BruteForceKNN",
    "Gatherer",
    "GatherResult",
    "VEGStageStats",
    "VoxelExpandedGatherer",
    "knn_counter_model",
]
