"""Single-pass octree construction (the Octree-build Unit's algorithm).

Section V-A of the paper: the Octree is built "by traversing points in the
raw point cloud in a single pass of the data", subdividing every non-empty
voxel until a pre-defined depth is reached.  At the same time the point data
is reorganised in host memory into the SFC leaf order (handled by
:class:`~repro.octree.memory_layout.HostMemoryLayout`, which consumes the
tree built here).

The builder is functional *and* counted: it reports
:class:`OctreeBuildStats` (points visited, memory traffic, nodes created)
which feed the latency model of the CPU-side Octree-build Unit and the
octree-build-overhead analysis of Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.morton import MAX_DEPTH, voxel_center
from repro.geometry.pointcloud import PointCloud
from repro.kernels import (
    bucket_sorted,
    sort_codes,
    spread_axis,
    unique_sorted,
)
from repro.octree.node import OctreeNode


@dataclass
class OctreeBuildStats:
    """Operation counts of one octree construction.

    These counts drive the CPU-side cost model: building the tree requires
    exactly one streaming read of the raw cloud plus one write per point for
    the reorganised copy, plus bookkeeping writes for the created nodes.
    """

    num_points: int = 0
    depth: int = 0
    num_nodes: int = 0
    num_leaves: int = 0
    host_memory_reads: int = 0
    host_memory_writes: int = 0
    max_leaf_occupancy: int = 0

    def total_memory_accesses(self) -> int:
        return self.host_memory_reads + self.host_memory_writes


@dataclass(frozen=True)
class OctreeSummary:
    """What a served response keeps of a frame's octree (no per-point array).

    Built by :meth:`Octree.summary`; the full octree of the same frame is
    one deterministic ``PreprocessingEngine.process(cloud)`` away.
    """

    depth: int
    box: AxisAlignedBox
    stats: OctreeBuildStats

    @property
    def num_nodes(self) -> int:
        return self.stats.num_nodes

    @property
    def num_leaves(self) -> int:
        return self.stats.num_leaves


@dataclass
class Octree:
    """A built octree over a point cloud frame."""

    depth: int
    box: AxisAlignedBox
    cloud: PointCloud
    leaf_codes: np.ndarray = field(repr=False)
    point_codes: np.ndarray = field(repr=False)
    stats: OctreeBuildStats = field(default_factory=OctreeBuildStats)
    #: Pointer tree, materialised lazily on first access: the flat arrays
    #: above fully describe the octree, and the vectorized consumers (OIS,
    #: the host-memory layout) never touch individual nodes, so ``build``
    #: does not pay for creating them.
    _root: Optional[OctreeNode] = field(default=None, repr=False)
    _leaf_lookup: Optional[Dict[int, OctreeNode]] = field(default=None, repr=False)
    #: Cached SFC point permutation (computed lazily when not supplied).
    _sfc_order: Optional[np.ndarray] = field(default=None, repr=False)
    #: Leaf bucket geometry over ``_sfc_order`` (for lazy materialisation).
    _bucket_starts: Optional[np.ndarray] = field(default=None, repr=False)
    _bucket_counts: Optional[np.ndarray] = field(default=None, repr=False)
    #: Cached cumulative leaf point counts (``num_leaves + 1`` slot bounds).
    _slot_bounds: Optional[np.ndarray] = field(default=None, repr=False)
    #: Cached sorted node codes per level (the canonical flat representation).
    _level_codes: Optional[List[np.ndarray]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        cloud: PointCloud,
        depth: int,
        padding: float = 1e-9,
    ) -> "Octree":
        """Build one frame's octree: :meth:`build_batch` with ``B = 1``."""
        return cls.build_batch([cloud], depth, padding)[0]

    @classmethod
    def build_batch(
        cls,
        clouds: "Sequence[PointCloud]",
        depth: int,
        padding: float = 1e-9,
    ) -> List["Octree"]:
        """Build one octree per frame of a same-shaped batch.

        The construction is vectorised, which mirrors the single-pass
        nature of the hardware algorithm while staying fast in Python: the
        heavy kernel work is issued once for the whole stack -- bounds and
        quantisation over one contiguous axis-major ``(3, B, N)`` copy of
        the points, an m-code that is the OR of three per-axis bit spreads,
        and one packed-key sort (:func:`repro.kernels.sort_codes`, equal to
        a stable ``argsort``) over the ``(B, N)`` code matrix -- while the
        per-frame assembly (leaf buckets, node counting, stats) stays
        frame-local, so a frame's octree (codes, permutation, stats, box)
        does not depend on its batch.
        """
        clouds = list(clouds)
        if not clouds:
            return []
        if not 1 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}]; got {depth}")
        shape = clouds[0].points.shape
        for b, cloud in enumerate(clouds):
            if cloud.num_points == 0:
                raise ValueError("cannot build an octree over an empty cloud")
            if cloud.points.shape != shape:
                raise ValueError(
                    f"frame {b} has shape {cloud.points.shape}, "
                    f"expected {shape}"
                )

        # Axis-major, so every reduction and elementwise step below runs
        # over contiguous length-N rows instead of a length-3 inner axis.
        coords = np.empty((3, len(clouds), shape[0]), dtype=np.float64)
        for b, cloud in enumerate(clouds):
            coords[:, b, :] = cloud.points.T
        minima = coords.min(axis=2).T
        maxima = coords.max(axis=2).T
        boxes: List[AxisAlignedBox] = []
        for b, cloud in enumerate(clouds):
            bounds = AxisAlignedBox(minimum=minima[b], maximum=maxima[b])
            if cloud._bounds_cache is None:
                cloud._bounds_cache = bounds
            boxes.append(bounds.as_cube(padding=padding))

        # Per-frame voxel indices, the same elementwise IEEE recipe as
        # ``geometry.morton.voxel_indices`` (subtract, divide, scale, floor,
        # cast, clip), done in place over the stack.
        resolution = 1 << depth
        cube_min = np.stack([box.minimum for box in boxes], axis=1)
        cube_size = np.stack([box.size for box in boxes], axis=1)
        extent = np.where(cube_size > 0, cube_size, 1.0)
        coords -= cube_min[:, :, None]
        coords /= extent[:, :, None]
        coords *= resolution
        np.floor(coords, out=coords)
        indices = coords.astype(np.int64)
        np.clip(indices, 0, resolution - 1, out=indices)

        codes = (
            spread_axis(indices[0], 0)
            | spread_axis(indices[1], 1)
            | spread_axis(indices[2], 2)
        ).view(np.int64)
        orders, sorted_codes = sort_codes(codes)

        return [
            cls._assemble(
                cloud,
                depth,
                boxes[b],
                codes[b],
                orders[b],
                *bucket_sorted(sorted_codes[b]),
            )
            for b, cloud in enumerate(clouds)
        ]

    @classmethod
    def _assemble(
        cls,
        cloud: PointCloud,
        depth: int,
        box: AxisAlignedBox,
        codes: np.ndarray,
        order: np.ndarray,
        unique_codes: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
    ) -> "Octree":
        """Assemble one frame's octree from its pre-bucketed m-codes."""
        stats = OctreeBuildStats(num_points=cloud.num_points, depth=depth)
        # One streaming read of every raw point (coordinates) ...
        stats.host_memory_reads += cloud.num_points
        # ... and one write per point for the SFC-reorganised copy.
        stats.host_memory_writes += cloud.num_points
        stats.max_leaf_occupancy = int(counts.max()) if counts.size else 0

        # Count interior nodes level by level without creating any node
        # object: the sorted unique prefixes at level L are one shift away
        # from level L+1.
        num_nodes = 1 + int(unique_codes.shape[0])  # root + leaves
        prefixes = unique_codes
        for _ in range(depth - 1, 0, -1):
            # Right-shifting a sorted array keeps it sorted, so the level
            # above needs no re-sorting unique.
            prefixes = unique_sorted(prefixes >> 3)
            num_nodes += int(prefixes.shape[0])

        stats.num_nodes = num_nodes
        stats.num_leaves = int(unique_codes.shape[0])
        # Node bookkeeping: one write per created node (child pointer / table
        # entry).  This is small relative to the per-point traffic but is
        # included for completeness.
        stats.host_memory_writes += stats.num_nodes

        return cls(
            depth=depth,
            box=box,
            cloud=cloud,
            leaf_codes=unique_codes,
            point_codes=codes,
            stats=stats,
            _sfc_order=order,
            _bucket_starts=starts,
            _bucket_counts=counts,
        )

    # ------------------------------------------------------------------
    # Lazy pointer-tree materialisation
    # ------------------------------------------------------------------
    def _materialise_tree(self) -> None:
        """Create the pointer tree from the flat code arrays.

        Nodes are created level by level in ascending-code order, each
        linked to its parent with one dict lookup; per-level voxel boxes are
        computed in one vectorised pass instead of recursive
        ``box.octant`` subdivision.
        """
        from repro.kernels import decode_cells

        depth = self.depth
        root = OctreeNode(code=0, level=0, box=self.box)

        level_codes = self.codes_per_level()

        box_minimum = self.box.minimum
        box_size = self.box.size
        previous: Dict[int, OctreeNode] = {0: root}
        for level in range(1, depth + 1):
            codes = level_codes[level]
            cell = box_size / (1 << level)
            minima = box_minimum + decode_cells(codes, level) * cell
            maxima = minima + cell
            current: Dict[int, OctreeNode] = {}
            for position, code in enumerate(codes.tolist()):
                node = OctreeNode(
                    code=code,
                    level=level,
                    box=AxisAlignedBox.unchecked(
                        minima[position], maxima[position]
                    ),
                )
                previous[code >> 3].children[code & 0b111] = node
                current[code] = node
            previous = current

        order = self._sfc_order_cached()
        self._ensure_buckets()
        for position, code in enumerate(self.leaf_codes.tolist()):
            start = self._bucket_starts[position]
            previous[code].point_indices = order[
                start : start + self._bucket_counts[position]
            ]

        self._root = root
        self._leaf_lookup = previous

    @property
    def root(self) -> OctreeNode:
        if self._root is None:
            self._materialise_tree()
        return self._root

    @property
    def leaf_lookup(self) -> Dict[int, OctreeNode]:
        if self._leaf_lookup is None:
            self._materialise_tree()
        return self._leaf_lookup

    # ------------------------------------------------------------------
    # Flat representation
    # ------------------------------------------------------------------
    def codes_per_level(self) -> List[np.ndarray]:
        """Sorted node m-codes for levels 0..depth.

        ``codes_per_level()[L]`` holds the ascending codes of the occupied
        voxels at level ``L`` (level 0 is the root, level ``depth`` the
        leaves).  Together with :meth:`leaf_point_counts` this is the
        canonical flat octree representation; every consumer that only needs
        codes, occupancy, or address ranges reads these arrays and never
        materialises an :class:`OctreeNode`.
        """
        if self._level_codes is None:
            levels: List[np.ndarray] = [self.leaf_codes] * (self.depth + 1)
            for level in range(self.depth - 1, -1, -1):
                # Each level's codes are sorted, and a right shift preserves
                # that, so deduplication needs no re-sorting unique.
                levels[level] = unique_sorted(levels[level + 1] >> 3)
            self._level_codes = levels
        return self._level_codes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_leaves(self) -> int:
        return int(self.leaf_codes.shape[0])

    @property
    def num_nodes(self) -> int:
        return self.stats.num_nodes

    def summary(self) -> OctreeSummary:
        """Depth, root box and build counts, without the per-point arrays."""
        return OctreeSummary(depth=self.depth, box=self.box, stats=self.stats)

    def leaf(self, code: int) -> Optional[OctreeNode]:
        """Leaf node with m-code ``code`` or ``None`` when that voxel is empty."""
        return self.leaf_lookup.get(int(code))

    def leaf_of_point(self, point_index: int) -> OctreeNode:
        """The leaf voxel containing point ``point_index``."""
        return self.leaf_lookup[int(self.point_codes[point_index])]

    def leaves_in_sfc_order(self) -> List[OctreeNode]:
        """All leaves ordered by m-code (the 1-D array order of Figure 5b)."""
        lookup = self.leaf_lookup
        return [lookup[int(code)] for code in self.leaf_codes]

    def _sfc_order_cached(self) -> np.ndarray:
        if self._sfc_order is None:
            self._sfc_order = sort_codes(self.point_codes)[0]
        return self._sfc_order

    def _ensure_buckets(self) -> None:
        """Compute the flat leaf buckets (starts/counts over the SFC order).

        Pure array work over the sorted point codes -- never materialises the
        pointer tree.
        """
        if self._bucket_starts is not None and self._bucket_counts is not None:
            return
        sorted_codes = self.point_codes[self._sfc_order_cached()]
        self._bucket_starts = np.searchsorted(
            sorted_codes, self.leaf_codes, side="left"
        ).astype(np.intp)
        self._bucket_counts = (
            np.searchsorted(sorted_codes, self.leaf_codes, side="right")
            - self._bucket_starts
        ).astype(np.intp)

    def leaf_point_counts(self) -> np.ndarray:
        """Points per leaf, aligned with ``leaf_codes`` (read-only view).

        Flat-path accessor: computed from the sorted point codes, without
        materialising the pointer tree.
        """
        self._ensure_buckets()
        view = self._bucket_counts.view()
        view.flags.writeable = False
        return view

    def leaf_slot_bounds(self) -> np.ndarray:
        """Cumulative leaf point counts as ``num_leaves + 1`` slot bounds.

        ``bounds[i] : bounds[i + 1]`` is the half-open range of SFC slots
        (host-memory point slots relative to the reorganised region base)
        holding the points of leaf ``leaf_codes[i]``.  This is the
        searchsorted side of the Octree-Table address ranges and of
        :meth:`HostMemoryLayout.leaf_slot_range`.
        """
        if self._slot_bounds is None:
            bounds = np.zeros(self.num_leaves + 1, dtype=np.intp)
            np.cumsum(self.leaf_point_counts(), out=bounds[1:])
            bounds.setflags(write=False)
            self._slot_bounds = bounds
        return self._slot_bounds

    def leaf_position(self, code: int) -> int:
        """Index of leaf ``code`` in the flat leaf arrays, or -1 when empty."""
        position = int(np.searchsorted(self.leaf_codes, code))
        if (
            position < self.num_leaves
            and int(self.leaf_codes[position]) == int(code)
        ):
            return position
        return -1

    def points_in_sfc_order(self) -> np.ndarray:
        """Point indices concatenated in leaf-SFC order (read-only view).

        Equal to the per-leaf concatenation (each leaf stores a stable
        ascending-code sort slice), computed as one packed-key sort instead
        of an O(leaves) concatenate.  The view is read-only because the
        underlying permutation is shared with the lazy tree and the
        host-memory layout.
        """
        if not self.num_leaves:
            return np.zeros(0, dtype=np.intp)
        view = self._sfc_order_cached().view()
        view.flags.writeable = False
        return view

    def leaf_center(self, code: int) -> np.ndarray:
        """Geometric centre of the leaf voxel ``code``."""
        return voxel_center(int(code), self.depth, self.box)

    def _leaf_occupancies(self) -> np.ndarray:
        """Points per leaf, aligned with ``leaf_codes``."""
        return self.leaf_point_counts()

    def occupancy_histogram(self) -> Dict[int, int]:
        return {
            int(code): int(count)
            for code, count in zip(self.leaf_codes, self._leaf_occupancies())
        }

    def non_uniformity(self) -> float:
        """Coefficient of variation of leaf occupancy.

        The paper observes (Fig. 11 discussion) that a more non-uniform
        spatial distribution yields a deeper / more unbalanced octree; this
        scalar quantifies that property for the datasets we synthesise.
        """
        counts = self._leaf_occupancies().astype(float)
        if counts.size == 0:
            return 0.0
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)
