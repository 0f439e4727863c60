"""The Data Structuring Unit (DSU): a six-stage pipeline (Figure 8).

Stages (Section VI): Fetch central Point (FP), Locate central Voxel (LV),
Voxel Expansion (VE), Gather Points (GP), Sort (ST), Buffering (BF).  The
unit processes one central point per pipeline slot; consecutive central
points overlap, so the frame latency is governed by the slowest stage's
aggregate occupancy plus the pipeline fill time.

The DSU consumes the per-centroid statistics produced by the functional VEG
implementation (:class:`~repro.datastructuring.veg.VEGRunStats`) so its
latency follows the actual expansion behaviour of the frame rather than a
fixed estimate; an analytic path is provided for paper-scale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.datastructuring.veg import VEGRunStats
from repro.hardware.bitonic import BitonicSorter

#: Stage names in pipeline order.
DSU_STAGES = ("FP", "LV", "VE", "GP", "ST", "BF")


@dataclass
class DSUStageBreakdown:
    """Aggregate cycles spent in each DSU stage over one frame."""

    cycles: Dict[str, int] = field(default_factory=dict)

    def total_cycles(self) -> int:
        return sum(self.cycles.values())

    def bottleneck_stage(self) -> str:
        return max(self.cycles, key=self.cycles.get)

    def pipelined_cycles(self, num_centroids: int) -> int:
        """Frame cycles with perfect stage overlap.

        The slowest stage dominates; the other stages only add a pipeline
        fill of one occupancy-slot each for the first central point.
        """
        if not self.cycles:
            return 0
        bottleneck = max(self.cycles.values())
        fill = sum(
            int(round(c / max(1, num_centroids)))
            for stage, c in self.cycles.items()
            if c != bottleneck
        )
        return bottleneck + fill


@dataclass(frozen=True)
class DataStructuringUnit:
    """Cost model of the HgPCN Data Structuring Unit."""

    frequency_hz: float = 1.0e9
    #: Parallel voxel-lookup lanes of the VE stage (the unit "can execute
    #: multiple Octree neighbor search operations in parallel").
    expansion_lanes: int = 8
    #: Points gathered (read + forwarded) per cycle in the GP stage.
    gather_lanes: int = 4
    #: Distance evaluations per cycle feeding the sorter.
    distance_lanes: int = 4
    sorter: BitonicSorter = field(default_factory=lambda: BitonicSorter(comparators=16))
    octree_depth: int = 6

    # ------------------------------------------------------------------
    def breakdown_for_run(
        self, run_stats: VEGRunStats, neighbors: int
    ) -> DSUStageBreakdown:
        """Aggregate stage cycles over all centroids of one frame.

        Per centroid: FP one cycle; LV one table lookup per octree level;
        VE the voxel lookups over the expansion lanes; GP the inner points
        over the gather lanes; ST the sorted candidates' distances over the
        distance lanes plus their bitonic sort (one cycle when nothing is
        sorted); BF the K neighbors over the gather lanes.  Summed from the
        statistics columns in exact integer arithmetic; the sorter is priced
        once per distinct candidate count.
        """
        count = run_stats.num_centroids
        ve = np.maximum(1, -(-run_stats.voxels_visited // self.expansion_lanes))
        gp = np.maximum(
            1, -(-np.maximum(1, run_stats.inner_points) // self.gather_lanes)
        )
        st = 0
        for candidates, times in zip(
            *np.unique(run_stats.sorted_candidates, return_counts=True)
        ):
            candidates, times = int(candidates), int(times)
            if candidates > 0:
                distance = -(-candidates // self.distance_lanes)
                st += times * (distance + self.sorter.cycles_to_sort(candidates))
            else:
                st += times
        return DSUStageBreakdown(
            cycles={
                "FP": count,
                "LV": self.octree_depth * count,
                "VE": int(ve.sum()),
                "GP": int(gp.sum()),
                "ST": st,
                "BF": max(1, -(-neighbors // self.gather_lanes)) * count,
            }
        )

    def seconds_for_run(
        self,
        run_stats: VEGRunStats,
        neighbors: int,
        pipelined: bool = True,
    ) -> float:
        breakdown = self.breakdown_for_run(run_stats, neighbors)
        num_centroids = max(1, run_stats.num_centroids)
        cycles = (
            breakdown.pipelined_cycles(num_centroids)
            if pipelined
            else breakdown.total_cycles()
        )
        return cycles / self.frequency_hz

    # ------------------------------------------------------------------
    # Analytic path for paper-scale inputs
    # ------------------------------------------------------------------
    def synthetic_run_stats(
        self,
        num_centroids: int,
        neighbors: int,
        mean_last_shell: Optional[float] = None,
        mean_inner: Optional[float] = None,
        mean_voxels_visited: float = 27.0,
        mean_expansions: float = 2.0,
    ) -> VEGRunStats:
        """Build average-case VEG statistics without running the algorithm.

        Defaults follow the measured behaviour of the functional VEG
        implementation on the synthetic datasets: roughly two expansions,
        about one 3x3x3 neighbourhood of voxel lookups, an inner-shell yield
        of about half the gathering size, and a last shell of ~2.5x the
        gathering size.
        """
        last_shell = (
            int(round(mean_last_shell))
            if mean_last_shell is not None
            else int(round(2.5 * neighbors))
        )
        inner = (
            int(round(mean_inner)) if mean_inner is not None else max(1, neighbors // 2)
        )

        def column(value: float) -> np.ndarray:
            return np.full(num_centroids, int(round(value)), dtype=np.int64)

        return VEGRunStats(
            expansions=column(mean_expansions),
            inner_points=column(inner),
            last_shell_points=column(last_shell),
            sorted_candidates=column(last_shell),
            voxels_visited=column(mean_voxels_visited),
        )

    def synthetic_seconds(
        self,
        num_centroids: int,
        neighbors: int,
        mean_last_shell: Optional[float] = None,
    ) -> float:
        run_stats = self.synthetic_run_stats(
            num_centroids, neighbors, mean_last_shell=mean_last_shell
        )
        return self.seconds_for_run(run_stats, neighbors)
