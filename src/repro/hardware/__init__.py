"""Hardware cost models for the platforms evaluated in the paper.

The paper's results are produced on real hardware (Intel PAC Xeon+Arria-10,
Jetson Xavier NX, RTX 4060 Ti) and on the published simulators of PointACC
and Mesorasi.  This reproduction substitutes analytic + functional models
(see DESIGN.md): algorithms report operation counts, and the classes here
turn counts into latency and on-chip-memory estimates.

* :mod:`~repro.hardware.devices` -- throughput/bandwidth profiles of the
  CPUs, GPUs, and accelerator fabrics.
* :mod:`~repro.hardware.memory` -- host-memory and on-chip (BRAM) models.
* :mod:`~repro.hardware.bitonic` -- bitonic sorting network cost model, the
  ranking hardware both HgPCN and PointACC use.
* :mod:`~repro.hardware.systolic` -- the 16x16 systolic-array DLA used as
  the Feature Computation Unit.
* :mod:`~repro.hardware.sampling_module` -- the Down-sampling Unit with its
  parallel Sampling Modules (Figure 7).
* :mod:`~repro.hardware.dsu` -- the six-stage Data Structuring Unit pipeline
  (Figure 8).
* :mod:`~repro.hardware.fcu` -- the Feature Computation Unit wrapper.
* :mod:`~repro.hardware.octree_build_unit` -- CPU-side octree build cost.
* :mod:`~repro.hardware.interconnect` -- MMIO / shared-memory transfer cost.
"""

from repro.hardware.bitonic import BitonicSorter, bitonic_sort_comparisons
from repro.hardware.devices import DeviceProfile, get_device
from repro.hardware.dsu import DataStructuringUnit, DSUStageBreakdown
from repro.hardware.fcu import FeatureComputationUnit
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.memory import HostMemoryModel, OnChipMemoryModel
from repro.hardware.octree_build_unit import OctreeBuildUnit
from repro.hardware.sampling_module import DownSamplingUnit
from repro.hardware.systolic import SystolicArray

__all__ = [
    "BitonicSorter",
    "DSUStageBreakdown",
    "DataStructuringUnit",
    "DeviceProfile",
    "DownSamplingUnit",
    "FeatureComputationUnit",
    "HostMemoryModel",
    "InterconnectModel",
    "OctreeBuildUnit",
    "OnChipMemoryModel",
    "SystolicArray",
    "bitonic_sort_comparisons",
    "get_device",
]
