"""Axis-aligned bounding boxes.

The root voxel of every octree in the paper is an axis-aligned cube that
encloses the whole point cloud frame (Figure 5a).  :class:`AxisAlignedBox`
provides the cube-expansion and subdivision operations the octree builder
and its references need.
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
