"""Octree spatial index.

This subpackage implements the spatial-indexing substrate OIS is built on
(Sections IV-V of the paper), as flat per-level code arrays:

* :class:`~repro.octree.builder.Octree` -- the octree built in a single pass
  over the raw point cloud, as the Octree-build Unit on the CPU does: sorted
  leaf codes, per-level node codes, and the SFC point permutation that is the
  reorganised host-memory copy (a leaf's points occupy consecutive slots).
* :class:`~repro.octree.linear.OctreeTable` -- the flattened "Octree-Table"
  representation that is transferred to the FPGA over MMIO and used by the
  Down-sampling Unit.
"""

from repro.octree.builder import Octree, OctreeBuildStats, OctreeSummary
from repro.octree.linear import OctreeTable

__all__ = [
    "Octree",
    "OctreeBuildStats",
    "OctreeSummary",
    "OctreeTable",
]
