"""Point cloud container.

The paper (Section II-A) defines a point cloud as a set ``x = {(p_k, f_k)}``
where ``p_k = (x_k, y_k, z_k)`` is the coordinate of the k-th point and
``f_k`` is an optional 1-D feature vector.  :class:`PointCloud` is a thin,
immutable-by-convention wrapper around two numpy arrays that enforces this
shape contract and provides the handful of geometric helpers the rest of the
library needs (bounds, centroid, subsetting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.geometry.bbox import AxisAlignedBox


@dataclass
class PointCloud:
    """A set of 3-D points with optional per-point feature vectors.

    Parameters
    ----------
    points:
        ``(N, 3)`` float array of XYZ coordinates.
    features:
        Optional ``(N, F)`` float array of per-point features (for example
        LiDAR intensity, RGB colour, or surface normals).  ``None`` means the
        cloud carries coordinates only.
    frame_id:
        Optional identifier of the frame this cloud came from; carried along
        so end-to-end pipelines can report per-frame latency.
    timestamp:
        Optional acquisition time in seconds.  KITTI-style sequences use this
        to derive the sensor data-generation rate (Section VII-E).
    """

    points: np.ndarray
    features: Optional[np.ndarray] = None
    frame_id: Optional[str] = None
    timestamp: Optional[float] = None
    _bounds_cache: Optional[AxisAlignedBox] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(
                f"points must have shape (N, 3); got {points.shape}"
            )
        self.points = points
        if self.features is not None:
            features = np.asarray(self.features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != points.shape[0]:
                raise ValueError(
                    "features must have shape (N, F) matching points; "
                    f"got {features.shape} for {points.shape[0]} points"
                )
            self.features = features

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Number of points in the cloud."""
        return self.points.shape[0]

    @property
    def num_feature_channels(self) -> int:
        """Number of feature channels per point (0 when no features)."""
        if self.features is None:
            return 0
        return self.features.shape[1]

    @property
    def has_features(self) -> bool:
        return self.features is not None

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def bounds(self) -> AxisAlignedBox:
        """Axis-aligned bounding box of the cloud (cached)."""
        if self._bounds_cache is None:
            if self.num_points == 0:
                raise ValueError("cannot compute bounds of an empty cloud")
            self._bounds_cache = AxisAlignedBox(
                minimum=self.points.min(axis=0),
                maximum=self.points.max(axis=0),
            )
        return self._bounds_cache

    def centroid(self) -> np.ndarray:
        """Mean coordinate of the cloud."""
        if self.num_points == 0:
            raise ValueError("cannot compute centroid of an empty cloud")
        return self.points.mean(axis=0)

    def select(self, indices: Sequence[int] | np.ndarray) -> "PointCloud":
        """Return the sub-cloud at ``indices`` (order preserving)."""
        indices = np.asarray(indices, dtype=np.intp)
        return PointCloud(
            points=self.points[indices],
            features=None if self.features is None else self.features[indices],
            frame_id=self.frame_id,
            timestamp=self.timestamp,
        )
