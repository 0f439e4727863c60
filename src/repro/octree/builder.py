"""Single-pass octree construction (the Octree-build Unit's algorithm).

Section V-A of the paper: the Octree is built "by traversing points in the
raw point cloud in a single pass of the data", subdividing every non-empty
voxel until a pre-defined depth is reached.  At the same time the point data
is reorganised in host memory into the SFC leaf order: here that copy is the
octree's SFC point permutation (:meth:`Octree.points_in_sfc_order`), whose
slot ranges per leaf are :meth:`Octree.leaf_slot_bounds`.

The octree is flat: sorted leaf codes plus the per-level node codes one
shift each away (:meth:`Octree.codes_per_level`); no node object exists.

The builder is functional *and* counted: it reports
:class:`OctreeBuildStats` (points visited, memory traffic, nodes created)
which feed the latency model of the CPU-side Octree-build Unit and the
octree-build-overhead analysis of Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.morton import MAX_DEPTH
from repro.geometry.pointcloud import PointCloud
from repro.kernels import (
    bucket_sorted,
    sort_codes,
    spread_axis,
    unique_sorted,
)


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
    #: SFC point permutation (a stable sort of ``point_codes``).
    _sfc_order: np.ndarray = field(repr=False)
    #: Leaf bucket geometry over ``_sfc_order``, aligned with ``leaf_codes``.
    _bucket_starts: np.ndarray = field(repr=False)
    _bucket_counts: np.ndarray = field(repr=False)
    stats: OctreeBuildStats = field(default_factory=OctreeBuildStats)
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
    # Flat representation
    # ------------------------------------------------------------------
    def codes_per_level(self) -> List[np.ndarray]:
        """Sorted node m-codes for levels 0..depth.

        ``codes_per_level()[L]`` holds the ascending codes of the occupied
        voxels at level ``L`` (level 0 is the root, level ``depth`` the
        leaves).  Together with :meth:`leaf_point_counts` this is the
        canonical flat octree representation: every consumer of codes,
        occupancy, or address ranges reads these arrays.
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

    def leaf_point_counts(self) -> np.ndarray:
        """Points per leaf, aligned with ``leaf_codes`` (read-only view)."""
        view = self._bucket_counts.view()
        view.flags.writeable = False
        return view

    def leaf_slot_bounds(self) -> np.ndarray:
        """Cumulative leaf point counts as ``num_leaves + 1`` slot bounds.

        ``bounds[i] : bounds[i + 1]`` is the half-open range of SFC slots
        (host-memory point slots relative to the reorganised region base)
        holding the points of leaf ``leaf_codes[i]``: the Octree-Table's
        leaf address ranges.
        """
        if self._slot_bounds is None:
            bounds = np.zeros(self.num_leaves + 1, dtype=np.intp)
            np.cumsum(self.leaf_point_counts(), out=bounds[1:])
            bounds.setflags(write=False)
            self._slot_bounds = bounds
        return self._slot_bounds

    def points_in_sfc_order(self) -> np.ndarray:
        """Point indices concatenated in leaf-SFC order (read-only view).

        Equal to the per-leaf concatenation (each leaf stores a stable
        ascending-code sort slice), computed as one packed-key sort instead
        of an O(leaves) concatenate.  The view is read-only because the
        underlying permutation is the octree's own cached copy.
        """
        if not self.num_leaves:
            return np.zeros(0, dtype=np.intp)
        view = self._sfc_order.view()
        view.flags.writeable = False
        return view

    def non_uniformity(self) -> float:
        """Coefficient of variation of leaf occupancy.

        The paper observes (Fig. 11 discussion) that a more non-uniform
        spatial distribution yields a deeper / more unbalanced octree; this
        scalar quantifies that property for the datasets we synthesise.
        """
        counts = self.leaf_point_counts().astype(float)
        if counts.size == 0:
            return 0.0
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)
