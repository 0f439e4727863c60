"""The Octree-Table: linearised octree for the FPGA-side units.

Section V-B: "the generated Octree will be configured into an equivalent
Octree-Table, to be transferred to and used by the Down-sampling Unit in the
FPGA.  In the Octree, the leaf nodes contain the address (or address range)
of the contained point(s)."

:class:`OctreeTable` is that flat structure, array-backed: parallel arrays
hold one row per node (m-code, level, leaf flag), a CSR block holds the
child rows of the internal nodes, and two address arrays carry the
host-memory point-slot range of every leaf.  Rows appear in pre-order
(depth-first, children in ascending octant order), exactly the layout the
FPGA table walk assumes.

:meth:`OctreeTable.from_flat` builds the whole table from the octree's flat
per-level code arrays -- pure ``searchsorted``/``lexsort`` array work.  The
frozen recursive walk it must match row for row, array for array, is
``kernels.reference.octree_table_scalar``.

The table also knows its own on-chip footprint in bits, which is what the
Figure 13 on-chip-memory analysis measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import gather_ragged
from repro.octree.builder import Octree


@dataclass
class OctreeTable:
    """Flattened, array-backed octree used by the FPGA units.

    Parallel arrays (one element per table row, rows in pre-order):

    ``codes`` / ``levels`` / ``leaf_flags``
        The node m-code, depth, and leaf flag of every row.
    ``child_bounds`` / ``child_rows`` / ``child_octants``
        CSR child lists: row ``r``'s children occupy
        ``child_rows[child_bounds[r] : child_bounds[r + 1]]`` (ascending
        octant order; ``child_octants`` carries the 3-bit octant of each).
    ``addr_starts`` / ``addr_ends``
        Host-memory point-slot range of leaf rows (zeros for internal rows).
    """

    depth: int
    codes: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)
    leaf_flags: np.ndarray = field(repr=False)
    child_bounds: np.ndarray = field(repr=False)
    child_rows: np.ndarray = field(repr=False)
    child_octants: np.ndarray = field(repr=False)
    addr_starts: np.ndarray = field(repr=False)
    addr_ends: np.ndarray = field(repr=False)
    #: Total points addressed by the leaf rows.
    num_points: int = 0
    root_index: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_flat(cls, octree: Octree) -> "OctreeTable":
        """Build the table from the flat per-level code arrays.

        Pure array construction: the pre-order row permutation is one
        ``lexsort`` over (subtree key, level), child spans are
        ``searchsorted`` ranges of each level's codes into the next level's
        parent prefixes, and leaf address ranges are the octree's cumulative
        leaf point counts.
        """
        depth = octree.depth
        level_codes = octree.codes_per_level()
        sizes = np.array([c.shape[0] for c in level_codes], dtype=np.intp)
        offsets = np.zeros(depth + 2, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        total = int(offsets[-1])

        all_codes = np.concatenate(level_codes)
        all_levels = np.repeat(np.arange(depth + 1, dtype=np.int64), sizes)

        # Pre-order (DFS, ascending octant) == ascending (subtree key, level)
        # where the key left-pads a node's code with zeros to leaf depth: a
        # parent shares the key of its leftmost descendant and sorts first on
        # the lower level; any other pair orders by the first differing
        # octant digit.
        keys = all_codes << (3 * (depth - all_levels))
        order = np.lexsort((all_levels, keys))
        row_of = np.empty(total, dtype=np.intp)
        row_of[order] = np.arange(total, dtype=np.intp)

        codes = all_codes[order]
        levels = all_levels[order]
        leaf_flags = levels == depth

        # Child spans: level L+1 codes are sorted, so each parent's children
        # occupy one contiguous slice of the next level's array.
        child_counts = np.zeros(total, dtype=np.intp)
        child_lo = np.zeros(total, dtype=np.intp)  # concat-space span starts
        for level in range(depth):
            parents = level_codes[level]
            child_parents = level_codes[level + 1] >> 3
            first = np.searchsorted(child_parents, parents, side="left")
            last = np.searchsorted(child_parents, parents, side="right")
            parent_rows = row_of[offsets[level] : offsets[level + 1]]
            child_lo[parent_rows] = offsets[level + 1] + first
            child_counts[parent_rows] = last - first

        child_bounds = np.zeros(total + 1, dtype=np.intp)
        np.cumsum(child_counts, out=child_bounds[1:])
        child_rows, _ = gather_ragged(row_of, child_lo, child_counts)
        child_codes, _ = gather_ragged(all_codes, child_lo, child_counts)

        # Leaf address ranges follow the SFC leaf order so the table is
        # consistent with the host-memory reorganisation, the octree's SFC
        # point permutation.
        bounds = octree.leaf_slot_bounds()
        leaf_rows = row_of[offsets[depth] : offsets[depth + 1]]
        addr_starts = np.zeros(total, dtype=np.intp)
        addr_ends = np.zeros(total, dtype=np.intp)
        addr_starts[leaf_rows] = bounds[:-1]
        addr_ends[leaf_rows] = bounds[1:]

        return cls(
            depth=depth,
            codes=codes,
            levels=levels,
            leaf_flags=leaf_flags,
            child_bounds=child_bounds,
            child_rows=child_rows.astype(np.intp),
            child_octants=(child_codes & 0b111).astype(np.int64),
            addr_starts=addr_starts,
            addr_ends=addr_ends,
            num_points=int(bounds[-1]),
            root_index=int(row_of[0]),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.codes.shape[0])

    # ------------------------------------------------------------------
    # On-chip footprint (Figure 13)
    # ------------------------------------------------------------------
    @staticmethod
    def entry_bits_for(depth: int, num_rows: int, num_points: int) -> int:
        """Bits of one row of a ``num_rows``-row table over ``num_points``.

        A row stores: the m-code (3 bits per level), a leaf flag, eight child
        row indices (internal rows) or a start address + count (leaf rows).
        Row indices and addresses are sized for the actual table/point count,
        rounded up to whole bits.  Only these three counts enter, and a
        table has one row per octree node, so a frame's footprint is known
        from its octree without building the table.
        """
        code_bits = 3 * depth
        index_bits = max(1, int(np.ceil(np.log2(max(2, num_rows)))))
        address_bits = max(1, int(np.ceil(np.log2(max(2, num_points + 1)))))
        child_bits = 8 * index_bits
        leaf_bits = 2 * address_bits
        return code_bits + 1 + max(child_bits, leaf_bits)

    def entry_bits(self) -> int:
        """Bits needed for one table row in the FPGA implementation."""
        return self.entry_bits_for(self.depth, len(self), self.num_points)

    def total_bits(self) -> int:
        """Total on-chip storage of the table in bits."""
        return self.entry_bits() * len(self)

    def total_megabits(self) -> float:
        return self.total_bits() / 1e6
