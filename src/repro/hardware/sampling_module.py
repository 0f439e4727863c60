"""The Down-sampling Unit and its parallel Sampling Modules (Figure 7).

A Sampling Module takes the m-code of an assigned voxel and the m-code of the
seed voxel and produces their Hamming distance with one XOR + popcount.  The
Down-sampling Unit deploys eight of them (voxel-level parallelism) so all
children of an octree node are evaluated in one step; a bitonic selection
stage then picks the farthest child, and the walk continues one level down.

The latency model below charges, per selected sample:

* ``depth`` levels of walk, each costing one table lookup, one parallel
  Hamming evaluation, and one ``8``-wide selection;
* one host-memory read for the finally selected point;
* one Sampled-Point-Table write.

The same work can be executed by the CPU (the OIS-on-CPU configuration of
Figure 12); :meth:`DownSamplingUnit.cpu_seconds_per_frame` prices it with a
CPU device profile so the hardware-vs-software speedup of the unit (the
5.95x-6.24x the paper reports) can be reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.metrics import OpCounters
from repro.hardware.devices import DeviceProfile, get_device
from repro.hardware.memory import HostMemoryModel


@dataclass(frozen=True)
class DownSamplingUnit:
    """The FPGA Down-sampling Unit: parallel Sampling Modules + selector."""

    num_modules: int = 8
    frequency_hz: float = 2.5e8
    #: Cycles for one Octree-Table lookup (BRAM read).
    table_lookup_cycles: int = 1
    #: Cycles for the bitonic selection among the evaluated children.
    selection_cycles: int = 3
    #: Host memory model used for the final point fetches.
    host_memory: HostMemoryModel = field(default_factory=HostMemoryModel)

    # ------------------------------------------------------------------
    def cycles_per_sample(self, octree_depth: int) -> int:
        """Cycles of octree walking needed to select one sample."""
        if octree_depth < 1:
            raise ValueError("octree_depth must be >= 1")
        # All children of a node are evaluated in parallel across the
        # Sampling Modules; with fewer modules than children the evaluation
        # is serialised in ceil(8 / num_modules) waves.
        waves = math.ceil(8 / self.num_modules)
        per_level = self.table_lookup_cycles + waves + self.selection_cycles
        return octree_depth * per_level

    def seconds_per_frame(
        self, octree_depth: int, num_samples: int, include_point_fetch: bool = True
    ) -> float:
        """Down-sampling latency of one frame (excluding the octree build)."""
        walk_cycles = self.cycles_per_sample(octree_depth) * num_samples
        seconds = walk_cycles / self.frequency_hz
        if include_point_fetch:
            seconds += self.host_memory.transfer_seconds(
                num_samples * self.host_memory.bytes_per_point
            )
        return seconds

    # ------------------------------------------------------------------
    def counters_per_frame(self, octree_depth: int, num_samples: int) -> OpCounters:
        """Operation counts of the walk (mirrors ``ois_counter_model``)."""
        counters = OpCounters()
        counters.node_visits = num_samples * octree_depth
        counters.hamming_ops = num_samples * octree_depth * 8
        counters.onchip_reads = num_samples * octree_depth * 8
        counters.compare_ops = num_samples * octree_depth * 8
        counters.host_memory_reads = num_samples
        counters.onchip_writes = num_samples
        return counters

    def cpu_seconds_per_frame(
        self,
        octree_depth: int,
        num_samples: int,
        cpu: DeviceProfile | str = "xeon_w2255",
    ) -> float:
        """The same down-sampling walk executed in software on a CPU.

        The CPU serialises the child evaluations: every child considered is a
        dependent pointer-chase (a node visit) followed by the XOR/popcount
        and the comparison, whereas the hardware unit evaluates all eight
        children in one pipelined step.  That serialisation is where the
        roughly 6x advantage of the hardware Down-sampling Unit comes from
        (Section VII-C).
        """
        if isinstance(cpu, str):
            cpu = get_device(cpu)
        counters = self.counters_per_frame(octree_depth, num_samples)
        counters.node_visits = num_samples * octree_depth * 8
        return cpu.estimate_latency(counters, overlap=False)

    def hardware_speedup_vs_cpu(
        self,
        octree_depth: int,
        num_samples: int,
        cpu: DeviceProfile | str = "xeon_w2255",
    ) -> float:
        hardware = self.seconds_per_frame(octree_depth, num_samples)
        software = self.cpu_seconds_per_frame(octree_depth, num_samples, cpu)
        return software / hardware
