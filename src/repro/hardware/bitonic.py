"""Bitonic sorting network: cost model.

Both HgPCN's Data Structuring Unit and PointACC's Mapping Unit rank neighbor
candidates with a bitonic sorter (Section VII-D).  The crucial difference the
paper exploits is the *size of the input* each design feeds to the sorter:
PointACC sorts the whole input point cloud per centroid, HgPCN only the last
expansion shell.  The cost model therefore matters: a bitonic sort of ``m``
elements performs ``m/4 * log2(m) * (log2(m)+1)`` compare-exchange
operations, so the workload gap between the two designs grows super-linearly
with the input size -- this is what produces the Figure 14/15 scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def bitonic_sort_comparisons(num_elements: int) -> int:
    """Compare-exchange count of a full bitonic sort of ``num_elements``.

    The input is padded to the next power of two (hardware sorting networks
    have a fixed width), giving ``n/4 * log2(n) * (log2(n)+1)`` comparators
    for ``n`` padded elements.
    """
    if num_elements <= 0:
        raise ValueError("num_elements must be positive")
    n = _next_power_of_two(num_elements)
    if n == 1:
        return 0
    stages = int(math.log2(n))
    return (n * stages * (stages + 1)) // 4


@dataclass(frozen=True)
class BitonicSorter:
    """Hardware bitonic sorter with a fixed number of comparator lanes."""

    comparators: int = 16

    def cycles_to_sort(self, num_elements: int) -> int:
        """Cycles to sort ``num_elements`` given the comparator budget."""
        comparisons = bitonic_sort_comparisons(num_elements)
        return int(math.ceil(comparisons / self.comparators))
