"""FrameBatch: the batch-native unit of execution.

The serving path used to hand frames through the engines one at a time;
``FrameBatch`` makes a *stack of same-shaped frames* the value that travels
instead.  It bundles the per-frame :class:`~repro.geometry.pointcloud.PointCloud`
objects (still needed by per-frame stages: octree build, sampling, neighbor
gathering, traces) with the stacked ``(B, N, 3)`` coordinate tensor and the
optional stacked ``(B, N, F)`` feature tensor that the batched network
forward consumes.

The shape contract is strict: every frame in a batch has the same point
count and the same feature layout (all frames carry features of the same
width, or none do).  :meth:`Session.run_batch` plans its shape groups into
such batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.pointcloud import PointCloud
from repro.kernels import stack_frames


@dataclass
class FrameBatch:
    """A stack of same-shaped point-cloud frames.

    Attributes
    ----------
    clouds:
        The B member frames, in batch order.
    points:
        ``(B, N, 3)`` stacked coordinates (views of the member clouds'
        arrays where possible -- treat as read-only).
    features:
        ``(B, N, F)`` stacked features, or ``None`` when the member clouds
        carry coordinates only.
    """

    clouds: List[PointCloud]
    points: np.ndarray = field(repr=False)
    features: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def from_clouds(cls, clouds: Sequence[PointCloud]) -> "FrameBatch":
        """Stack ``clouds`` into a batch, validating the shape contract."""
        clouds = list(clouds)
        if not clouds:
            raise ValueError("cannot build a FrameBatch from zero frames")
        first = clouds[0]
        for i, cloud in enumerate(clouds):
            if cloud.num_points != first.num_points:
                raise ValueError(
                    f"frame {i} has {cloud.num_points} points, expected "
                    f"{first.num_points}; group same-shaped frames first"
                )
            if cloud.num_feature_channels != first.num_feature_channels:
                raise ValueError(
                    f"frame {i} has {cloud.num_feature_channels} feature "
                    f"channels, expected {first.num_feature_channels}"
                )
        points = stack_frames([cloud.points for cloud in clouds])
        features = None
        if first.has_features:
            features = stack_frames([cloud.features for cloud in clouds])
        return cls(clouds=clouds, points=points, features=features)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.clouds)

    @property
    def num_points(self) -> int:
        """Points per frame (every member has the same count)."""
        return int(self.points.shape[1])

    @property
    def num_feature_channels(self) -> int:
        if self.features is None:
            return 0
        return int(self.features.shape[2])
