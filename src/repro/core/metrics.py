"""Operation counters and latency records.

Every functional algorithm in the library (FPS, OIS, KNN, VEG, the PointNet++
forward pass, ...) reports what it *did* in an :class:`OpCounters` record:
host-memory traffic, on-chip traffic, distance computations, comparison /
sort operations, Hamming-distance (XOR) operations, octree node visits, and
multiply-accumulates.  The hardware and device models then turn those counts
into latency estimates, which keeps the "what work was done" and "how fast a
given platform does it" concerns separate — the same separation the paper
draws between algorithm (OIS/VEG) and implementation (CPU vs FPGA).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List


@dataclass
class OpCounters:
    """Counts of the primitive operations an algorithm performed."""

    #: Reads of point records / intermediate data from host (off-chip) memory.
    host_memory_reads: int = 0
    #: Writes of point records / intermediate data to host memory.
    host_memory_writes: int = 0
    #: Reads from on-chip (BRAM / cache-resident) structures such as the
    #: Octree-Table or the sampled-point table.
    onchip_reads: int = 0
    #: Writes to on-chip structures.
    onchip_writes: int = 0
    #: Euclidean distance computations between two 3-D points.
    distance_computations: int = 0
    #: Pairwise comparisons performed by sorting / top-k selection.
    compare_ops: int = 0
    #: XOR + popcount operations on m-codes (hardware Sampling Modules).
    hamming_ops: int = 0
    #: Octree / Octree-Table node visits.
    node_visits: int = 0
    #: Multiply-accumulate operations (feature computation).
    mac_ops: int = 0
    #: Bytes moved over the host<->accelerator link (MMIO / DMA).
    interconnect_bytes: int = 0

    # ------------------------------------------------------------------
    def add(self, other: "OpCounters") -> None:
        """In-place element-wise accumulation."""
        for f in fields(OpCounters):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def total_host_memory_accesses(self) -> int:
        return self.host_memory_reads + self.host_memory_writes

    def total_onchip_accesses(self) -> int:
        return self.onchip_reads + self.onchip_writes


@dataclass(frozen=True)
class PhaseLatency:
    """Latency of one named phase of the pipeline, in seconds."""

    phase: str
    seconds: float


@dataclass
class LatencyBreakdown:
    """An ordered collection of phase latencies (Figure 3 / Figure 16 style)."""

    phases: List[PhaseLatency] = field(default_factory=list)

    def add(self, phase: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self.phases.append(PhaseLatency(phase=phase, seconds=seconds))

    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases)

    def seconds_for(self, phase: str) -> float:
        return sum(p.seconds for p in self.phases if p.phase == phase)

    def as_dict(self) -> Dict[str, float]:
        result: Dict[str, float] = {}
        for p in self.phases:
            result[p.phase] = result.get(p.phase, 0.0) + p.seconds
        return result
