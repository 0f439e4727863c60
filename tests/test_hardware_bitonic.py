"""Unit tests for the bitonic sorter cost model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.bitonic import BitonicSorter, bitonic_sort_comparisons


def bitonic_network(values):
    """Sort ``values`` with a bitonic network padded to a power of two.

    Returns the sorted values and the number of compare-exchanges the
    network performed: the quantity the cost model states in closed form.
    """
    data = [float(v) for v in values] or [0.0]
    width = 1 << (len(data) - 1).bit_length()
    data += [math.inf] * (width - len(data))
    exchanges = 0
    block = 2
    while block <= width:
        stride = block // 2
        while stride >= 1:
            for i in range(width):
                partner = i ^ stride
                if partner > i:
                    exchanges += 1
                    ascending = (i & block) == 0
                    if (data[i] > data[partner]) == ascending:
                        data[i], data[partner] = data[partner], data[i]
            stride //= 2
        block *= 2
    return data[: len(values)], exchanges


class TestComparisonCounts:
    def test_known_values(self):
        # n/4 * log2(n) * (log2(n)+1)
        assert bitonic_sort_comparisons(2) == 1
        assert bitonic_sort_comparisons(4) == 6
        assert bitonic_sort_comparisons(8) == 24
        assert bitonic_sort_comparisons(1024) == 256 * 10 * 11

    def test_padding_to_power_of_two(self):
        assert bitonic_sort_comparisons(1000) == bitonic_sort_comparisons(1024)

    def test_invalid(self):
        with pytest.raises(ValueError):
            bitonic_sort_comparisons(0)

    def test_superlinear_growth(self):
        """The full-input sort workload grows faster than linearly, which is
        what makes PointACC's per-centroid full sort fall behind VEG as the
        input size grows (Figure 15)."""
        small = bitonic_sort_comparisons(1024) / 1024
        large = bitonic_sort_comparisons(16384) / 16384
        assert large > small


class TestCountAgainstANetwork:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=33))
    def test_network_sorts(self, values):
        ordered, _ = bitonic_network(values)
        assert ordered == sorted(float(v) for v in values)

    @pytest.mark.parametrize("num_elements", [1, 2, 3, 8, 13, 64, 100, 256])
    def test_count_matches_the_network(self, num_elements):
        values = np.random.default_rng(num_elements).normal(size=num_elements)
        _, exchanges = bitonic_network(values)
        assert bitonic_sort_comparisons(num_elements) == exchanges


class TestHardwareSorter:
    def test_cycles_scale_with_comparators(self):
        wide = BitonicSorter(comparators=32)
        narrow = BitonicSorter(comparators=8)
        assert wide.cycles_to_sort(4096) < narrow.cycles_to_sort(4096)

    def test_cycles_round_up_to_whole_cycles(self):
        # 24 compare-exchanges for 8 elements over 7 lanes: 4 cycles.
        assert BitonicSorter(comparators=7).cycles_to_sort(8) == 4
        assert BitonicSorter(comparators=8).cycles_to_sort(8) == 3

    def test_one_element_takes_no_cycles(self):
        assert BitonicSorter(comparators=16).cycles_to_sort(1) == 0
