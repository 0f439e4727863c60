"""Host <-> FPGA interconnect model (setup latency plus bandwidth).

On the Intel PAC platform the CPU and FPGA share host memory; the
Octree-Table is transferred to the Down-sampling Unit "via MMIO"
(Section V).  The model charges a fixed per-transfer setup latency plus a
bandwidth term, and is also used for the output transfer of inference
results back to the host.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InterconnectModel:
    """A simple latency + bandwidth link model."""

    #: Effective bandwidth of the link in bytes/s (PCIe Gen3 x8-class).
    bandwidth_bytes_per_s: float = 8.0e9
    #: Per-transfer setup latency in seconds (doorbell + descriptor).
    setup_latency_s: float = 5.0e-6

    def transfer_seconds(self, num_bytes: float) -> float:
        """Latency of one DMA-style bulk transfer."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.setup_latency_s + num_bytes / self.bandwidth_bytes_per_s

    def octree_table_transfer_seconds(self, table_bits: int) -> float:
        """Cost of shipping an Octree-Table of ``table_bits`` to the FPGA."""
        return self.transfer_seconds(table_bits / 8)
