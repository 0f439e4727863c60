"""Unit tests for repro.hardware.devices."""

import pytest

from repro.core.metrics import OpCounters
from repro.hardware.devices import get_device


class TestRegistry:
    def test_paper_platforms_registered(self):
        for expected in (
            "xeon_w2255",
            "jetson_xavier_nx",
            "rtx_4060ti",
            "arria10_gx",
            "dla_16x16",
        ):
            assert get_device(expected).name == expected

    def test_get_device_unknown(self):
        with pytest.raises(KeyError):
            get_device("pdp11")


class TestLatencyModel:
    def test_zero_counters_costs_only_overhead(self):
        xeon = get_device("xeon_w2255")
        assert xeon.estimate_latency(OpCounters()) == pytest.approx(
            xeon.invocation_overhead_s
        )

    def test_compute_bound_workload(self):
        xeon = get_device("xeon_w2255")
        counters = OpCounters(mac_ops=10**9)
        latency = xeon.estimate_latency(counters)
        assert latency == pytest.approx(
            10**9 / xeon.mac_rate + xeon.invocation_overhead_s, rel=1e-6
        )

    def test_memory_bound_workload(self):
        xeon = get_device("xeon_w2255")
        counters = OpCounters(host_memory_reads=10**8)
        expected = 10**8 * xeon.bytes_per_host_access / xeon.host_memory_bandwidth
        assert xeon.estimate_latency(counters) == pytest.approx(
            expected + xeon.invocation_overhead_s, rel=1e-6
        )

    def test_overlap_takes_max_no_overlap_sums(self):
        xeon = get_device("xeon_w2255")
        counters = OpCounters(mac_ops=10**9, host_memory_reads=10**8)
        overlapped = xeon.estimate_latency(counters, overlap=True)
        serial = xeon.estimate_latency(counters, overlap=False)
        assert serial > overlapped
        assert serial == pytest.approx(
            xeon.compute_seconds(counters)
            + xeon.memory_seconds(counters)
            + xeon.invocation_overhead_s,
            rel=1e-6,
        )

    def test_latency_monotone_in_work(self):
        gpu = get_device("jetson_xavier_nx")
        small = OpCounters(distance_computations=10**6)
        large = OpCounters(distance_computations=10**8)
        assert gpu.estimate_latency(large) > gpu.estimate_latency(small)

    def test_faster_device_is_faster(self):
        counters = OpCounters(mac_ops=10**10, host_memory_reads=10**7)
        desktop = get_device("rtx_4060ti").estimate_latency(counters)
        embedded = get_device("jetson_xavier_nx").estimate_latency(counters)
        assert desktop < embedded

    def test_interconnect_term(self):
        dla = get_device("dla_16x16")
        counters = OpCounters(interconnect_bytes=8 * 10**9)
        assert dla.estimate_latency(counters) >= 1.0
