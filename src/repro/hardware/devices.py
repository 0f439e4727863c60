"""Device throughput/bandwidth profiles.

A :class:`DeviceProfile` maps :class:`~repro.core.metrics.OpCounters` to a
latency estimate with a simple roofline: compute time (each operation class
divided by its effective rate) and memory time (traffic divided by effective
bandwidth) overlap, so the phase latency is their maximum plus a fixed
invocation overhead.

The numbers are *effective* rates -- what the platform achieves on these
irregular point cloud kernels, not datasheet peaks.  They are calibrated so
the relative results (speedups, breakdown fractions, crossovers) land in the
ranges the paper reports; EXPERIMENTS.md records the paper-vs-measured
comparison.  Absolute values should be read as indicative only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.metrics import OpCounters


@dataclass(frozen=True)
class DeviceProfile:
    """Effective throughput model of one execution platform."""

    name: str
    #: Clock of the device (informational; rates below are already absolute).
    frequency_hz: float
    #: Multiply-accumulate throughput (MAC/s) on dense MVM kernels.
    mac_rate: float
    #: Euclidean distance computations per second (irregular gather + FMA).
    distance_rate: float
    #: Comparison / sorting-network operations per second.
    compare_rate: float
    #: XOR+popcount (Hamming) operations per second.
    hamming_rate: float
    #: Tree/table node visits per second (pointer chasing).
    node_visit_rate: float
    #: Host (off-chip) memory bandwidth in bytes/s, effective.
    host_memory_bandwidth: float
    #: On-chip memory bandwidth in bytes/s, effective.
    onchip_bandwidth: float
    #: Bytes moved per host-memory access recorded in the counters (a point
    #: record: XYZ in single precision).
    bytes_per_host_access: float = 12.0
    #: Bytes per on-chip access (a table entry / code word).
    bytes_per_onchip_access: float = 8.0
    #: Fixed invocation overhead per phase (kernel launch, framework, MMIO
    #: doorbell), in seconds.
    invocation_overhead_s: float = 0.0
    #: Interconnect bandwidth for host<->device transfers in bytes/s.
    interconnect_bandwidth: float = 8e9

    # ------------------------------------------------------------------
    def compute_seconds(self, counters: OpCounters) -> float:
        """Pure compute time of the counted operations."""
        return (
            counters.mac_ops / self.mac_rate
            + counters.distance_computations / self.distance_rate
            + counters.compare_ops / self.compare_rate
            + counters.hamming_ops / self.hamming_rate
            + counters.node_visits / self.node_visit_rate
        )

    def memory_seconds(self, counters: OpCounters) -> float:
        """Pure memory-transfer time of the counted accesses."""
        host_bytes = (
            counters.total_host_memory_accesses() * self.bytes_per_host_access
        )
        onchip_bytes = (
            counters.total_onchip_accesses() * self.bytes_per_onchip_access
        )
        return (
            host_bytes / self.host_memory_bandwidth
            + onchip_bytes / self.onchip_bandwidth
        )

    def interconnect_seconds(self, counters: OpCounters) -> float:
        return counters.interconnect_bytes / self.interconnect_bandwidth

    def estimate_latency(
        self, counters: OpCounters, overlap: bool = True
    ) -> float:
        """Latency estimate for executing ``counters`` on this device.

        With ``overlap`` (default) compute and memory are assumed to overlap
        perfectly (roofline); otherwise they are summed, which models a
        platform that serialises the two (e.g. a naive CPU implementation
        with poor prefetching).
        """
        compute = self.compute_seconds(counters)
        memory = self.memory_seconds(counters)
        body = max(compute, memory) if overlap else compute + memory
        return body + self.interconnect_seconds(counters) + self.invocation_overhead_s


# ----------------------------------------------------------------------
# Profile registry
# ----------------------------------------------------------------------
#: Effective rates; see the module docstring for how to read them.
_PROFILES: Dict[str, DeviceProfile] = {}


def _register(profile: DeviceProfile) -> DeviceProfile:
    _PROFILES[profile.name] = profile
    return profile


#: Intel Xeon W-2255 (10 cores, 3.7 GHz): the host CPU of the Intel PAC
#: platform and the CPU baseline of Figures 9-12.  Point cloud kernels on
#: CPUs are memory-bound and irregular, hence modest effective rates.
XEON_W2255 = _register(
    DeviceProfile(
        name="xeon_w2255",
        frequency_hz=3.7e9,
        mac_rate=6.0e10,
        distance_rate=1.5e9,
        compare_rate=2.5e9,
        hamming_rate=3.0e9,
        node_visit_rate=7.0e7,
        host_memory_bandwidth=2.0e10,
        onchip_bandwidth=2.0e11,
        invocation_overhead_s=2.0e-6,
    )
)

#: Nvidia Jetson Xavier NX: the embedded GPU baseline of Figure 14.  The MAC
#: rate is the *achieved* throughput of small-batch PointNet++ layers (many
#: skinny MVMs with poor tensor-core utilisation), far below the datasheet
#: peak.
JETSON_XAVIER_NX = _register(
    DeviceProfile(
        name="jetson_xavier_nx",
        frequency_hz=1.1e9,
        mac_rate=5.0e10,
        distance_rate=6.0e9,
        compare_rate=2.0e9,
        hamming_rate=8.0e9,
        node_visit_rate=2.0e8,
        host_memory_bandwidth=5.0e10,
        onchip_bandwidth=4.0e11,
        invocation_overhead_s=2.0e-4,
    )
)

#: Nvidia RTX 4060 Ti: the desktop GPU used for the motivation study (Fig 3).
RTX_4060TI = _register(
    DeviceProfile(
        name="rtx_4060ti",
        frequency_hz=2.5e9,
        mac_rate=2.0e12,
        distance_rate=6.0e10,
        compare_rate=2.5e10,
        hamming_rate=8.0e10,
        node_visit_rate=1.0e9,
        host_memory_bandwidth=2.5e11,
        onchip_bandwidth=2.0e12,
        invocation_overhead_s=1.0e-4,
    )
)

#: Intel Arria 10 GX 1150 fabric: hosts HgPCN's Down-sampling Unit and Data
#: Structuring Unit.  Rates reflect deeply pipelined fixed-function units at
#: a ~250 MHz fabric clock with multiple parallel lanes.
ARRIA10_GX = _register(
    DeviceProfile(
        name="arria10_gx",
        frequency_hz=2.5e8,
        mac_rate=5.0e10,
        distance_rate=4.0e9,
        compare_rate=8.0e9,
        hamming_rate=2.0e9,  # 8 Sampling Modules x 250 MHz
        node_visit_rate=2.5e8,
        host_memory_bandwidth=1.5e10,
        onchip_bandwidth=5.0e11,
        invocation_overhead_s=1.0e-6,
    )
)

#: The DLA (Feature Computation Unit) configuration shared by the accelerator
#: comparison of Figure 14: a 16x16 systolic array.  The same effective MAC
#: rate is used for HgPCN, PointACC and Mesorasi so the comparison isolates
#: the data structuring step, as the paper's setup does.
DLA_16X16 = _register(
    DeviceProfile(
        name="dla_16x16",
        frequency_hz=1.0e9,
        mac_rate=2.56e11,  # 256 MACs/cycle at 1 GHz
        distance_rate=1.6e10,
        compare_rate=1.6e10,  # 16 comparator lanes at 1 GHz
        hamming_rate=1.6e10,
        node_visit_rate=1.0e9,
        host_memory_bandwidth=2.56e10,
        onchip_bandwidth=1.0e12,
        invocation_overhead_s=1.0e-6,
    )
)


def get_device(name: str) -> DeviceProfile:
    """Look up a registered device profile by name."""
    try:
        return _PROFILES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown device {name!r}; known devices: {sorted(_PROFILES)}"
        ) from exc

