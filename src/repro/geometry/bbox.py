"""Axis-aligned bounding boxes.

The root voxel of every octree in the paper is an axis-aligned cube that
encloses the whole point cloud frame (Figure 5a).  :class:`AxisAlignedBox`
provides the containment, subdivision, and cube-expansion operations the
octree builder needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AxisAlignedBox:
    """An axis-aligned box defined by its minimum and maximum corners."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        minimum = np.asarray(self.minimum, dtype=np.float64)
        maximum = np.asarray(self.maximum, dtype=np.float64)
        if minimum.shape != (3,) or maximum.shape != (3,):
            raise ValueError("box corners must be 3-vectors")
        if np.any(maximum < minimum):
            raise ValueError("maximum corner must be >= minimum corner")
        object.__setattr__(self, "minimum", minimum)
        object.__setattr__(self, "maximum", maximum)

    @property
    def size(self) -> np.ndarray:
        """Per-axis extent."""
        return self.maximum - self.minimum

    @property
    def center(self) -> np.ndarray:
        return (self.minimum + self.maximum) / 2.0

    @property
    def volume(self) -> float:
        return float(np.prod(self.size))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of which ``(N, 3)`` points fall inside the box.

        The upper face is inclusive so a cube exactly enclosing the cloud
        keeps the extremal points.
        """
        points = np.asarray(points, dtype=np.float64)
        return np.all(
            (points >= self.minimum) & (points <= self.maximum), axis=-1
        )

    def as_cube(self, padding: float = 0.0) -> "AxisAlignedBox":
        """Return the smallest cube centred like this box that contains it.

        Octree voxels are cubes; the root voxel is the cube hull of the
        frame's bounding box, optionally padded by a relative ``padding``
        fraction to avoid boundary points landing exactly on a face.
        """
        half = float(self.size.max()) / 2.0
        half *= 1.0 + padding
        if half == 0.0:
            half = 0.5  # degenerate cloud (single point): unit cube around it
        center = self.center
        return AxisAlignedBox(minimum=center - half, maximum=center + half)

    def octant(self, code: int) -> "AxisAlignedBox":
        """Return the child octant selected by a 3-bit ``code``.

        Bit layout matches the paper's m-code convention: the first bit is
        the X axis, the second Y, the third Z (Section V-A).  Bit value 1
        selects the upper half of the axis.
        """
        if not 0 <= code < 8:
            raise ValueError("octant code must be in [0, 8)")
        center = self.center
        minimum = self.minimum.copy()
        maximum = self.maximum.copy()
        for axis in range(3):
            bit = (code >> (2 - axis)) & 1
            if bit:
                minimum[axis] = center[axis]
            else:
                maximum[axis] = center[axis]
        return AxisAlignedBox(minimum=minimum, maximum=maximum)

    def union(self, other: "AxisAlignedBox") -> "AxisAlignedBox":
        return AxisAlignedBox(
            minimum=np.minimum(self.minimum, other.minimum),
            maximum=np.maximum(self.maximum, other.maximum),
        )

    @classmethod
    def from_points(cls, points: np.ndarray) -> "AxisAlignedBox":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
            raise ValueError("need a non-empty (N, 3) array of points")
        return cls(minimum=points.min(axis=0), maximum=points.max(axis=0))
