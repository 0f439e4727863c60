"""Uniform voxel grid over a point cloud.

A :class:`VoxelGrid` is the flat (single depth) view of an octree's leaf
level: every point is assigned to the voxel given by its m-code at a fixed
depth.  The VEG method's voxel expansion (Section VI) and the voxel-grid
down-sampling baseline both operate on this structure, so it is factored out
of the octree proper.

The grid is array-backed, in two views built on first use.  Down-sampling
and quality analysis read its m-code buckets (stable sort order + unique
codes + bucket starts/counts from :mod:`repro.kernels.bucketing`).  VEG
reads it by cube address and never encodes an m-code:

* the points in row-major ``(x, y, z)`` cell order, with cells from
  :func:`~repro.geometry.morton.voxel_indices` and the linear cell index
  ``(x * R + y) * R + z``;
* two exclusive prefix counts over that index, one of points and one of
  occupied cells -- dense tables up to depth 6, a binary search of the
  occupied cells above it;
* an ``(x, y)`` column of a Chebyshev cube is one contiguous z-run of that
  order, so counting a cube's points or occupied voxels is two prefix reads
  per column, and gathering its points one slice per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.morton import morton_encode_points, voxel_indices
from repro.geometry.pointcloud import PointCloud
from repro.kernels import bucketize_codes


#: Deepest grid whose prefix counts are dense tables over every linear
#: cell: ``8**6 + 1`` entries each.  Every VEG grid is shallower
#: (``suggest_depth`` of <= 2048 points is 5); deeper grids binary-search
#: the occupied cells instead.
_DENSE_PREFIX_MAX_DEPTH = 6


@dataclass
class VoxelGrid:
    """Points bucketed into the uniform grid of ``2**depth`` cells per axis.

    Both views of the buckets -- by m-code and row-major -- are built on
    first use.
    """

    cloud: PointCloud
    depth: int
    box: AxisAlignedBox

    @classmethod
    def build(
        cls,
        cloud: PointCloud,
        depth: int,
        box: AxisAlignedBox | None = None,
    ) -> "VoxelGrid":
        """Voxelise ``cloud`` at ``depth`` inside ``box`` (default: cube hull)."""
        if box is None:
            box = cloud.bounds().as_cube()
        return cls(cloud=cloud, depth=depth, box=box)

    @cached_property
    def codes(self) -> np.ndarray:
        """M-code of every point."""
        return morton_encode_points(self.cloud.points, self.box, self.depth)

    @cached_property
    def _buckets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return bucketize_codes(self.codes)

    @property
    def order(self) -> np.ndarray:
        """Stable ascending-code permutation of the point indices."""
        return self._buckets[0]

    @property
    def unique_codes(self) -> np.ndarray:
        """Sorted m-codes of the occupied voxels."""
        return self._buckets[1]

    @property
    def starts(self) -> np.ndarray:
        """Bucket ``i`` holds ``order[starts[i] : starts[i] + counts[i]]``."""
        return self._buckets[2]

    @property
    def counts(self) -> np.ndarray:
        return self._buckets[3]

    # ------------------------------------------------------------------
    @property
    def resolution(self) -> int:
        """Number of cells per axis."""
        return 1 << self.depth

    @property
    def num_occupied_voxels(self) -> int:
        return int(self.unique_codes.shape[0])

    def occupied_codes(self) -> np.ndarray:
        """Sorted m-codes of the non-empty voxels (read-only view)."""
        view = self.unique_codes.view()
        view.flags.writeable = False
        return view

    def points_in_voxel(self, code: int) -> np.ndarray:
        """Indices (into the cloud) of the points inside voxel ``code``."""
        code = int(code)
        position = int(np.searchsorted(self.unique_codes, code))
        if (
            position == self.num_occupied_voxels
            or int(self.unique_codes[position]) != code
        ):
            return np.zeros(0, dtype=np.intp)
        start = self.starts[position]
        return self.order[start : start + self.counts[position]]

    def occupancy_histogram(self) -> Dict[int, int]:
        """Map ``code -> number of points`` for the occupied voxels."""
        return {
            int(code): int(count)
            for code, count in zip(self.unique_codes, self.counts)
        }

    def cell_size(self) -> np.ndarray:
        """Edge lengths of one voxel."""
        return self.box.size / self.resolution

    # ------------------------------------------------------------------
    # Row-major cube addressing used by VEG
    # ------------------------------------------------------------------
    @cached_property
    def linear_cells(self) -> np.ndarray:
        """Row-major cell ``(x * R + y) * R + z`` of every point."""
        cells = voxel_indices(self.cloud.points, self.box, self.depth)
        x, y, z = cells.T
        return (x << (2 * self.depth)) | (y << self.depth) | z

    @cached_property
    def row_major(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, cells, starts)``: the points in row-major cell order.

        ``order`` is the stable ascending permutation of
        :attr:`linear_cells` (ascending point index within a cell),
        ``cells`` the occupied linear cells ascending, and ``starts`` their
        exclusive point prefix of length ``len(cells) + 1``.
        """
        order, cells, starts, _ = bucketize_codes(self.linear_cells)
        return order, cells, np.append(starts, order.shape[0])

    @cached_property
    def _dense_prefix(self) -> Tuple[np.ndarray, np.ndarray]:
        """Points and occupied cells before every linear cell, ``R**3 + 1`` each."""
        counts = np.bincount(self.linear_cells, minlength=self.resolution**3)
        points = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        voxels = np.zeros_like(points)
        np.cumsum(counts, out=points[1:])
        np.cumsum(counts > 0, out=voxels[1:])
        return points, voxels

    def cells_before(self, linear: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(points, voxels)`` with a linear cell below each of ``linear``.

        ``linear`` may hold ``R**3`` (one past the last cell).  A run of
        cells ``[lo, hi)`` holds ``points(hi) - points(lo)`` points, which
        are ``row_major[0][points(lo) : points(hi)]``, in
        ``voxels(hi) - voxels(lo)`` occupied cells.  Grids up to depth 6
        read two dense tables; deeper ones binary-search the occupied
        cells.
        """
        if self.depth <= _DENSE_PREFIX_MAX_DEPTH:
            points, voxels = self._dense_prefix
            return points[linear], voxels[linear]
        _, cells, starts = self.row_major
        voxels = np.searchsorted(cells, linear)
        return starts[voxels], voxels

    def points_before(self, linear: np.ndarray) -> np.ndarray:
        """The ``points`` half of :meth:`cells_before`."""
        if self.depth <= _DENSE_PREFIX_MAX_DEPTH:
            return self._dense_prefix[0][linear]
        _, cells, starts = self.row_major
        return starts[np.searchsorted(cells, linear)]

    def cube_runs(
        self, centers: np.ndarray, radius: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Linear-cell runs ``[lo, hi)`` of each centre's Chebyshev cube.

        ``centers`` is ``(3, M)``: the x, y and z cells of ``M`` centres.
        Returns ``(lo, hi)`` of shape ``((2 * radius + 1)**2, M)``, one
        z-run per ``(x, y)`` column of the cube clipped to the grid: column
        ``j`` lies at ``(dx, dy) = divmod(j, 2 * radius + 1) - radius`` from
        its centre.  A column outside the grid is an empty run (``lo ==
        hi``).  Centres run along the last axis, so every operation loops
        over ``M`` contiguous values.
        """
        depth, top = self.depth, self.resolution - 1
        span = np.arange(-radius, radius + 1)[:, None]
        x = centers[0] + span
        y = centers[1] + span
        z = centers[2]
        z_lo = np.maximum(z - radius, 0)
        # Out-of-grid columns get length 0 at a clipped, in-range address.
        x_in = ((x >= 0) & (x <= top)).astype(np.int64)
        y_length = ((y >= 0) & (y <= top)) * (np.minimum(z + radius, top) + 1 - z_lo)
        x = np.minimum(np.maximum(x, 0), top) << (2 * depth)
        y = (np.minimum(np.maximum(y, 0), top) << depth) + z_lo
        lo = (x[:, None, :] + y[None, :, :]).reshape(-1, z.shape[0])
        hi = lo + (x_in[:, None, :] * y_length[None, :, :]).reshape(lo.shape)
        return lo, hi


def suggest_depth(num_points: int, target_points_per_voxel: float = 4.0) -> int:
    """Pick an octree depth so occupied leaves hold a few points each.

    The paper notes (Section VII-B) that octree depth depends on the size and
    non-uniformity of the cloud.  This heuristic chooses the smallest depth
    whose total number of cells is at least ``num_points /
    target_points_per_voxel`` assuming a roughly surface-like (2-D) occupancy
    of the 3-D grid, which matches LiDAR and CAD-model clouds.
    """
    if num_points <= 0:
        raise ValueError("num_points must be positive")
    depth = 1
    while depth < 12:
        occupied_estimate = (1 << depth) ** 2  # surface-like occupancy
        if occupied_estimate * target_points_per_voxel >= num_points:
            return depth
        depth += 1
    return depth


__all__ = ["VoxelGrid", "suggest_depth", "voxel_indices"]
