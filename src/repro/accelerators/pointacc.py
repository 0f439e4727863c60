"""PointACC baseline model (Lin et al., MICRO 2021).

PointACC accelerates the data structuring step with a Mapping Unit: for each
central point it computes the distance to every candidate of the input point
cloud and ranks them with a bitonic sorting network; feature computation runs
on a systolic array (the paper's comparison configures 16x16 for everyone).
The crucial property for the Figure 14/15 comparison is that the Mapping
Unit's sort operates over the *entire input point cloud* per centroid,
whereas HgPCN's DSU sorts only the last voxel-expansion shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.accelerators.base import (
    InferenceAccelerator,
    InferenceReport,
    InferenceWorkloadSpec,
)
from repro.core.metrics import LatencyBreakdown
from repro.hardware.bitonic import BitonicSorter
from repro.hardware.fcu import FeatureComputationUnit
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.systolic import SystolicArray


@dataclass
class PointACCModel(InferenceAccelerator):
    """Mapping Unit (full-range distance + bitonic ranking) + systolic array."""

    name: str = "pointacc"
    frequency_hz: float = 1.0e9
    #: Parallel distance-computation lanes of the Mapping Unit.
    distance_lanes: int = 16
    sorter: BitonicSorter = field(
        default_factory=lambda: BitonicSorter(comparators=16)
    )
    fcu: FeatureComputationUnit = field(
        default_factory=lambda: FeatureComputationUnit(array=SystolicArray())
    )
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)
    #: Whether the Mapping Unit overlaps with the systolic array.  PointACC
    #: pipelines the two, but the mapping results of a layer must be complete
    #: before that layer's matrix work can stream, so across the shallow
    #: PointNet++ layer stack the achieved overlap is small; the default
    #: models the phases as serialised, which reproduces the paper's measured
    #: speedup range (see EXPERIMENTS.md).
    overlapped: bool = False

    def data_structuring_seconds(self, workload: InferenceWorkloadSpec) -> float:
        total_cycles = 0
        for layer in workload.gather_layers():
            distance_cycles = math.ceil(layer.pool_size / self.distance_lanes)
            sort_cycles = self.sorter.cycles_to_sort(layer.pool_size)
            total_cycles += layer.num_centroids * (distance_cycles + sort_cycles)
        return total_cycles / self.frequency_hz

    def inference_report(self, workload: InferenceWorkloadSpec) -> InferenceReport:
        breakdown = LatencyBreakdown()
        breakdown.add("data_structuring", self.data_structuring_seconds(workload))
        breakdown.add(
            "feature_computation",
            self.fcu.seconds_for_workload(workload.network_workload()),
        )
        output_bytes = workload.input_size * 4 * 16
        breakdown.add("overhead", self.interconnect.transfer_seconds(output_bytes))
        return InferenceReport(
            accelerator=self.name,
            workload=workload,
            breakdown=breakdown,
            overlapped=self.overlapped,
            details={"distance_lanes": self.distance_lanes},
        )
