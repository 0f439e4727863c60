"""Morton codes (m-codes) of a point cloud.

The OIS and VEG methods both rely on a Morton / m-code spatial index
(Section V of the paper).  A point's m-code at octree depth ``d`` is the
``3 * d`` bit string obtained by, level by level, appending one bit per axis
describing in which half of the parent voxel the point falls.  The paper's
bit convention is used throughout: within each 3-bit group the first bit is
the X axis, the second Y, and the third Z, so sibling voxels are numbered by
the space-filling-curve traversal order of Figure 5(a).

This module maps points to voxel indices and their m-codes, which
:class:`~repro.geometry.voxelgrid.VoxelGrid` indexes by.
OIS ranks voxels by the Hamming distance of their m-codes, which its walk
reads from precomputed tables (:mod:`repro.sampling.ois`).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.bbox import AxisAlignedBox
from repro.kernels import encode_cells

#: Maximum supported octree depth.  3 bits per level; 21 levels keep codes
#: inside 63 bits so they fit a signed int64 array without overflow.
MAX_DEPTH = 21


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}]; got {depth}")


# ----------------------------------------------------------------------
# Vectorised encode over a point cloud
# ----------------------------------------------------------------------
def voxel_indices(
    points: np.ndarray, box: AxisAlignedBox, depth: int
) -> np.ndarray:
    """Map ``(N, 3)`` points to integer voxel indices at ``depth``.

    Points are clipped into the box so boundary points (exactly on the upper
    face) land in the last voxel rather than out of range.
    """
    _check_depth(depth)
    points = np.asarray(points, dtype=np.float64)
    resolution = 1 << depth
    extent = np.where(box.size > 0, box.size, 1.0)
    relative = (points - box.minimum) / extent
    indices = np.floor(relative * resolution).astype(np.int64)
    return np.clip(indices, 0, resolution - 1)


def morton_encode_points(
    points: np.ndarray, box: AxisAlignedBox, depth: int
) -> np.ndarray:
    """Vectorised m-code computation for an ``(N, 3)`` array of points.

    All 21 levels are interleaved at once by the bit-spreading kernel
    (:func:`repro.kernels.encode_cells`) instead of the per-level shift loop
    retained in :func:`repro.kernels.reference.scalar_morton_encode_points`.
    """
    return encode_cells(voxel_indices(points, box, depth), depth)
