"""Morton codes (m-codes) and Hamming distance.

The OIS and VEG methods both rely on a Morton / m-code spatial index
(Section V of the paper).  A point's m-code at octree depth ``d`` is the
``3 * d`` bit string obtained by, level by level, appending one bit per axis
describing in which half of the parent voxel the point falls.  The paper's
bit convention is used throughout: within each 3-bit group the first bit is
the X axis, the second Y, and the third Z, so sibling voxels are numbered by
the space-filling-curve traversal order of Figure 5(a).

The distance between two voxels is approximated by the Hamming distance of
their m-codes, computed with a single XOR + popcount, which is what the
hardware Sampling Modules of the Down-sampling Unit implement (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.bbox import AxisAlignedBox
from repro.kernels import encode_cells, popcount64

#: Maximum supported octree depth.  3 bits per level; 21 levels keep codes
#: inside 63 bits so they fit a signed int64 array without overflow.
MAX_DEPTH = 21


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}]; got {depth}")


# ----------------------------------------------------------------------
# Scalar encode
# ----------------------------------------------------------------------
def morton_encode(ix: int, iy: int, iz: int, depth: int) -> int:
    """Interleave integer voxel coordinates into an m-code.

    ``ix``, ``iy``, ``iz`` are voxel indices in ``[0, 2**depth)``.  The most
    significant 3-bit group corresponds to the root subdivision, matching the
    left-to-right reading of codes such as ``110101`` in Figure 5.
    """
    _check_depth(depth)
    limit = 1 << depth
    for name, value in (("ix", ix), ("iy", iy), ("iz", iz)):
        if not 0 <= value < limit:
            raise ValueError(f"{name}={value} outside [0, {limit})")
    code = 0
    for level in range(depth - 1, -1, -1):
        code = (code << 1) | ((ix >> level) & 1)
        code = (code << 1) | ((iy >> level) & 1)
        code = (code << 1) | ((iz >> level) & 1)
    return code


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


# ----------------------------------------------------------------------
# Hamming distance
# ----------------------------------------------------------------------
def hamming_distance(a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
    """Popcount of ``a XOR b``.

    This is the metric used by the hardware Sampling Modules to rank voxels
    by "farness" (Figure 7a).  Both scalars and numpy integer arrays are
    accepted; arrays are processed without Python-level loops.
    """
    xor = np.bitwise_xor(a, b)
    if np.isscalar(xor) or isinstance(xor, (int, np.integer)):
        return int(bin(int(xor)).count("1"))
    return popcount64(xor)


def prefix_at_level(code: int, depth: int, level: int) -> int:
    """The ancestor voxel code of ``code`` at a shallower ``level``.

    Used when walking the octree from the root: the paper's example finds
    the farthest level-1 voxel, then refines level by level (Section V-B).
    """
    _check_depth(depth)
    if not 1 <= level <= depth:
        raise ValueError("level must be in [1, depth]")
    return code >> (3 * (depth - level))


# ----------------------------------------------------------------------
# Small value object bundling a code with its depth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MortonCode:
    """An m-code together with the octree depth it was generated at."""

    code: int
    depth: int

    def __post_init__(self) -> None:
        _check_depth(self.depth)
        if not 0 <= self.code < (1 << (3 * self.depth)):
            raise ValueError("code outside the range implied by depth")

    @property
    def bits(self) -> str:
        """Zero-padded binary string, e.g. ``'110101'`` for depth 2 codes."""
        return format(self.code, f"0{3 * self.depth}b")

    def parent(self) -> "MortonCode":
        if self.depth == 1:
            raise ValueError("a depth-1 code has no parent below the root")
        return MortonCode(code=self.code >> 3, depth=self.depth - 1)

    def child(self, octant: int) -> "MortonCode":
        if not 0 <= octant < 8:
            raise ValueError("octant must be in [0, 8)")
        return MortonCode(code=(self.code << 3) | octant, depth=self.depth + 1)

    def hamming(self, other: "MortonCode") -> int:
        if other.depth != self.depth:
            raise ValueError("Hamming distance requires codes of equal depth")
        return int(hamming_distance(self.code, other.code))
