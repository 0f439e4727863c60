"""Geometric primitives for point cloud processing.

This subpackage provides the basic data types that every other part of the
HgPCN reproduction builds on:

* :class:`~repro.geometry.pointcloud.PointCloud` -- the ``(p_k, f_k)`` set of
  points with optional per-point features described in Section II-A of the
  paper.
* :class:`~repro.geometry.bbox.AxisAlignedBox` -- axis-aligned bounding boxes
  used as the root voxel of octrees and for normalisation.
* :mod:`~repro.geometry.morton` -- vectorised Morton code (m-code) encoding,
  the spatial index of the octree that OIS walks.
* :class:`~repro.geometry.voxelgrid.VoxelGrid` -- a uniform voxelisation of a
  point cloud at a fixed octree depth.
"""

from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.morton import morton_encode_points
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid

__all__ = [
    "AxisAlignedBox",
    "PointCloud",
    "VoxelGrid",
    "morton_encode_points",
]
