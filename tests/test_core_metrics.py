"""Unit tests for repro.core.metrics."""

import pytest

from repro.core.metrics import LatencyBreakdown, OpCounters, speedup


class TestOpCounters:
    def test_defaults_zero(self):
        counters = OpCounters()
        assert counters.total_host_memory_accesses() == 0
        assert counters.total_onchip_accesses() == 0

    def test_merge_and_add(self):
        a = OpCounters(host_memory_reads=10, mac_ops=5)
        b = OpCounters(host_memory_reads=1, compare_ops=2)
        merged = OpCounters.sum([a, b])
        assert merged.host_memory_reads == 11
        assert merged.mac_ops == 5
        assert merged.compare_ops == 2
        # sum does not mutate its operands.
        assert a.host_memory_reads == 10
        a.add(b)
        assert a.host_memory_reads == 11

    def test_sum(self):
        total = OpCounters.sum(
            [OpCounters(distance_computations=5), OpCounters(distance_computations=7)]
        )
        assert total.distance_computations == 12

    def test_scaled(self):
        scaled = OpCounters(host_memory_reads=10).scaled(2.5)
        assert scaled.host_memory_reads == 25

    def test_as_dict_roundtrip(self):
        counters = OpCounters(hamming_ops=3, node_visits=4)
        d = counters.as_dict()
        assert d["hamming_ops"] == 3
        assert d["node_visits"] == 4
        assert set(d) == set(OpCounters().as_dict())


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

    def test_fractions_sum_to_one(self):
        breakdown = LatencyBreakdown()
        breakdown.add("a", 1.0)
        breakdown.add("b", 3.0)
        fractions = breakdown.fractions()
        assert fractions["a"] == pytest.approx(0.25)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_zero_total_fractions(self):
        breakdown = LatencyBreakdown()
        breakdown.add("a", 0.0)
        assert breakdown.fractions()["a"] == 0.0

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


class TestSpeedup:
    def test_basic(self):
        assert speedup(2.0, 0.5) == pytest.approx(4.0)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
