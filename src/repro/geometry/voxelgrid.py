"""Uniform voxel grid over a point cloud.

A :class:`VoxelGrid` is the flat (single depth) view of an octree's leaf
level: every point is assigned to the voxel given by its m-code at a fixed
depth.  The VEG method's voxel expansion (Section VI) and the voxel-grid
down-sampling baseline both operate on this structure, so it is factored out
of the octree proper.

The grid is array-backed (stable sort order + unique codes + bucket
starts/counts from :mod:`repro.kernels.bucketing`).  VEG's shell lookups
find a voxel by address -- one read of a dense slot table indexed by
m-code, the DSU's locate-voxel stage -- and shell enumeration is one
vectorised encode over the precomputed Chebyshev offset stencil rather
than a per-voxel Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.morton import morton_encode_points, voxel_indices
from repro.geometry.pointcloud import PointCloud
from repro.kernels import (
    bucketize_codes,
    decode_cells,
    lookup_sorted,
    shell_offsets,
    stencil_codes,
)


#: Deepest grid given a dense slot table: ``8**6`` int32 slots, 1 MiB.
#: Every VEG grid is shallower (``suggest_depth`` of <= 2048 points is 5);
#: deeper grids look voxels up by binary search instead.
_SLOT_TABLE_MAX_DEPTH = 6


@dataclass
class VoxelGrid:
    """Points bucketed into the uniform grid of ``2**depth`` cells per axis."""

    cloud: PointCloud
    depth: int
    box: AxisAlignedBox
    codes: np.ndarray = field(repr=False)
    #: Stable ascending-code permutation of the point indices.
    order: np.ndarray = field(repr=False)
    #: Sorted m-codes of the occupied voxels.
    unique_codes: np.ndarray = field(repr=False)
    #: Bucket ``i`` holds ``order[starts[i] : starts[i] + counts[i]]``.
    starts: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

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
        codes = morton_encode_points(cloud.points, box, depth)
        order, unique_codes, starts, counts = bucketize_codes(codes)
        return cls(
            cloud=cloud,
            depth=depth,
            box=box,
            codes=codes,
            order=order,
            unique_codes=unique_codes,
            starts=starts,
            counts=counts,
        )

    # ------------------------------------------------------------------
    @property
    def resolution(self) -> int:
        """Number of cells per axis."""
        return 1 << self.depth

    @property
    def num_occupied_voxels(self) -> int:
        return int(self.unique_codes.shape[0])

    @cached_property
    def slot_table(self) -> np.ndarray:
        """Occupied-voxel position of every cell, indexed by m-code.

        ``int32`` of length ``8**depth``, -1 where the cell is empty.  Built
        by the first :meth:`shell_positions_batch` on a grid of depth <= 6,
        so grids that never expand shells (down-sampling, quality
        analysis) never allocate it.
        """
        table = np.full(1 << (3 * self.depth), -1, dtype=np.int32)
        table[self.unique_codes] = np.arange(
            self.num_occupied_voxels, dtype=np.int32
        )
        return table

    def occupied_codes(self) -> np.ndarray:
        """Sorted m-codes of the non-empty voxels (read-only view)."""
        view = self.unique_codes.view()
        view.flags.writeable = False
        return view

    def bucket_position(self, code: int) -> int:
        """Index of voxel ``code`` in the occupied-voxel arrays, or -1."""
        position = int(np.searchsorted(self.unique_codes, code))
        if (
            position < self.num_occupied_voxels
            and int(self.unique_codes[position]) == int(code)
        ):
            return position
        return -1

    def points_in_voxel(self, code: int) -> np.ndarray:
        """Indices (into the cloud) of the points inside voxel ``code``."""
        position = self.bucket_position(int(code))
        if position < 0:
            return np.zeros(0, dtype=np.intp)
        start = self.starts[position]
        return self.order[start : start + self.counts[position]]

    def voxel_of_point(self, index: int) -> int:
        """M-code of the voxel containing point ``index``."""
        return int(self.codes[index])

    def occupancy_histogram(self) -> Dict[int, int]:
        """Map ``code -> number of points`` for the occupied voxels."""
        return {
            int(code): int(count)
            for code, count in zip(self.unique_codes, self.counts)
        }

    # ------------------------------------------------------------------
    # Neighbourhood queries used by VEG
    # ------------------------------------------------------------------
    def grid_coordinates(self, code: int) -> Tuple[int, int, int]:
        """Integer (ix, iy, iz) of a voxel code."""
        ix, iy, iz = decode_cells(np.asarray([code], dtype=np.int64), self.depth)[0]
        return int(ix), int(iy), int(iz)

    def shell_positions_batch(
        self, center_cells: np.ndarray, radius: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Occupied-voxel positions on one Chebyshev shell, for many centres.

        Parameters
        ----------
        center_cells:
            ``(M, 3)`` integer cells of the shell centres.
        radius:
            Chebyshev shell radius (0 = the centre voxel itself).

        Returns
        -------
        ``(positions, found)`` of shape ``(M, S)`` where ``S`` is the stencil
        size: ``positions`` indexes the occupied-voxel arrays and ``found``
        masks in-bounds, occupied stencil entries.  Positions of entries
        outside ``found`` are still valid indices.  Within each row the
        stencil order matches the scalar ``shell_codes`` enumeration.
        """
        codes, in_bounds = stencil_codes(
            center_cells, shell_offsets(radius), self.depth
        )
        if self.depth > _SLOT_TABLE_MAX_DEPTH:
            positions, occupied = lookup_sorted(self.unique_codes, codes)
            return positions, in_bounds & occupied
        positions = self.slot_table[codes]
        found = in_bounds & (positions >= 0)
        np.maximum(positions, 0, out=positions)
        return positions, found

    def shell_codes(self, center_code: int, radius: int) -> List[int]:
        """Occupied voxel codes on the Chebyshev shell at ``radius``.

        ``radius = 0`` is the centre voxel itself; ``radius = 1`` the 26
        touching voxels (the grey voxels of Figure 8), and so on.  Only
        occupied voxels are returned because empty voxels contribute no
        points to the gathering step.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        center_cell = decode_cells(
            np.asarray([center_code], dtype=np.int64), self.depth
        )
        positions, found = self.shell_positions_batch(center_cell, radius)
        return [int(c) for c in self.unique_codes[positions[0][found[0]]]]

    def points_in_shells(
        self, center_code: int, max_radius: int
    ) -> Iterable[Tuple[int, np.ndarray]]:
        """Yield ``(radius, point_indices)`` for shells 0..max_radius."""
        for radius in range(max_radius + 1):
            indices = [
                self.points_in_voxel(code)
                for code in self.shell_codes(center_code, radius)
            ]
            if indices:
                yield radius, np.concatenate(indices)
            else:
                yield radius, np.zeros(0, dtype=np.intp)

    def cell_size(self) -> np.ndarray:
        """Edge lengths of one voxel."""
        return self.box.size / self.resolution


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


__all__ = ["VoxelGrid", "shell_offsets", "suggest_depth", "voxel_indices"]
