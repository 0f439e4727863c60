"""Host-memory and on-chip memory models.

Two concerns are modelled:

* **Traffic/latency** -- :class:`HostMemoryModel` turns a transfer's size
  into time (the Down-sampling Unit's point fetches).
* **Capacity** -- :class:`OnChipMemoryModel` tracks what must be resident in
  the FPGA's block RAM.  This is the Figure 13 analysis: with the common FPS
  method the raw frame plus the intermediate distance array must fit on chip,
  which overflows the Arria 10's 65 Mb for frames beyond ~5x10^5 points; with
  OIS only the Octree-Table and small working buffers are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class HostMemoryModel:
    """Shared host (DDR) memory reachable by both the CPU and the FPGA."""

    bandwidth_bytes_per_s: float = 2.0e10
    access_latency_s: float = 8.0e-8
    bytes_per_point: int = 12

    def transfer_seconds(self, num_bytes: float) -> float:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.access_latency_s + num_bytes / self.bandwidth_bytes_per_s


@dataclass
class OnChipMemoryModel:
    """Block-RAM capacity tracker for one FPGA configuration."""

    capacity_megabits: float = 65.0
    allocations: Dict[str, float] = field(default_factory=dict)

    def allocate(self, name: str, megabits: float) -> None:
        """Reserve ``megabits`` under ``name``; raises when over capacity."""
        if megabits < 0:
            raise ValueError("allocation must be non-negative")
        proposed = self.used_megabits() - self.allocations.get(name, 0.0) + megabits
        if proposed > self.capacity_megabits:
            raise MemoryError(
                f"on-chip memory exceeded: {proposed:.1f} Mb requested, "
                f"{self.capacity_megabits:.1f} Mb available"
            )
        self.allocations[name] = megabits

    def used_megabits(self) -> float:
        return sum(self.allocations.values())

    def free_megabits(self) -> float:
        return self.capacity_megabits - self.used_megabits()


# ----------------------------------------------------------------------
# Figure 13: on-chip footprint of the two pre-processing approaches
# ----------------------------------------------------------------------
def fps_onchip_megabits(
    num_points: int,
    bytes_per_point: int = 12,
    bytes_per_distance: int = 8,
) -> float:
    """On-chip footprint of running FPS entirely inside the FPGA.

    The raw frame (coordinates) and the per-point intermediate data (the
    nearest-distance value plus the index/flag word the ranking stage keeps)
    must all be resident, which is what the paper measures when it reports
    that frames beyond ~5x10^5 points overflow the 65 Mb device.
    """
    if num_points <= 0:
        raise ValueError("num_points must be positive")
    total_bytes = num_points * (bytes_per_point + bytes_per_distance)
    return total_bytes * 8 / 1e6


def ois_onchip_megabits(
    num_table_entries: int,
    entry_bits: int,
    num_samples: int,
    spt_entry_bits: int = 32,
    working_buffer_bits: int = 64 * 1024,
) -> float:
    """On-chip footprint of the OIS Down-sampling Unit.

    Only the Octree-Table, the Sampled-Point-Table (one address per selected
    point) and a small working buffer are resident; the raw points stay in
    host memory.
    """
    if num_table_entries <= 0 or entry_bits <= 0:
        raise ValueError("table dimensions must be positive")
    total_bits = (
        num_table_entries * entry_bits
        + num_samples * spt_entry_bits
        + working_buffer_bits
    )
    return total_bits / 1e6
