"""Octree spatial index.

This subpackage implements the spatial-indexing substrate both HgPCN methods
are built on (Sections IV-VI of the paper):

* :class:`~repro.octree.node.OctreeNode` / :class:`~repro.octree.builder.Octree`
  -- a pointer-based octree built in a single pass over the raw point cloud,
  exactly as the Octree-build Unit on the CPU does.
* :class:`~repro.octree.linear.OctreeTable` -- the flattened "Octree-Table"
  representation that is transferred to the FPGA over MMIO and used by the
  Down-sampling Unit and the Data Structuring Unit.
* :mod:`~repro.octree.neighbors` -- same-level voxel neighbor search
  (Frisken & Perry style) used by the VEG voxel expansion.
* :class:`~repro.octree.memory_layout.HostMemoryLayout` -- the Octree-based
  reorganisation of the point data in host memory, mapping SFC order to
  consecutive addresses.
"""

from repro.octree.builder import Octree, OctreeBuildStats, OctreeSummary
from repro.octree.linear import OctreeTable, OctreeTableEntry
from repro.octree.memory_layout import HostMemoryLayout
from repro.octree.neighbors import (
    codes_within_radius_batch,
    neighbor_codes,
    neighbor_codes_at_radius,
    neighbor_codes_batch,
)
from repro.octree.node import OctreeNode

__all__ = [
    "HostMemoryLayout",
    "Octree",
    "OctreeBuildStats",
    "OctreeNode",
    "OctreeSummary",
    "OctreeTable",
    "OctreeTableEntry",
    "codes_within_radius_batch",
    "neighbor_codes",
    "neighbor_codes_at_radius",
    "neighbor_codes_batch",
]
