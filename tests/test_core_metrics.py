"""Unit tests for repro.core.metrics."""

import pytest

from repro.core.metrics import LatencyBreakdown, OpCounters


class TestOpCounters:
    def test_defaults_zero(self):
        counters = OpCounters()
        assert counters.total_host_memory_accesses() == 0
        assert counters.total_onchip_accesses() == 0

    def test_merge_and_add(self):
        a = OpCounters(host_memory_reads=10, mac_ops=5)
        b = OpCounters(host_memory_reads=1, compare_ops=2)
        a.add(b)
        assert (a.host_memory_reads, a.mac_ops, a.compare_ops) == (11, 5, 2)
        # add does not mutate its operand.
        assert b == OpCounters(host_memory_reads=1, compare_ops=2)


class TestLatencyBreakdown:
    def test_add_and_total(self):
        breakdown = LatencyBreakdown()
        breakdown.add("preprocessing", 0.2)
        breakdown.add("inference", 0.05)
        assert breakdown.total_seconds() == pytest.approx(0.25)
        assert breakdown.seconds_for("preprocessing") == pytest.approx(0.2)

    def test_repeated_phase_accumulates(self):
        breakdown = LatencyBreakdown()
        breakdown.add("x", 0.1)
        breakdown.add("x", 0.2)
        assert breakdown.seconds_for("x") == pytest.approx(0.3)
        assert breakdown.as_dict()["x"] == pytest.approx(0.3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyBreakdown().add("x", -1.0)

    def test_unknown_phase_is_zero(self):
        breakdown = LatencyBreakdown()
        breakdown.add("a", 0.5)
        assert breakdown.seconds_for("b") == 0.0
        assert "b" not in breakdown.as_dict()

    def test_as_dict_keeps_first_seen_order(self):
        breakdown = LatencyBreakdown()
        for phase, seconds in [("octree", 0.1), ("ois", 0.2), ("octree", 0.3)]:
            breakdown.add(phase, seconds)
        assert list(breakdown.as_dict()) == ["octree", "ois"]
        assert breakdown.as_dict()["octree"] == pytest.approx(0.4)
