"""Voxel-Expanded Gathering (VEG) -- the paper's data structuring method.

For each central point (Section VI, Figure 8):

1. **FP** fetch the central point and its m-code;
2. **LV** locate the voxel containing it;
3. **VE** expand voxel shells outward (touching voxels first, then the next
   ring, ...) until the expanded voxels contain at least K points;
4. **GP** gather all points of the *inner* shells directly -- they are taken
   as neighbors without any distance computation;
5. **ST** sort only the points of the last expansion shell by distance to the
   central point and keep however many are still needed;
6. **BF** emit the K gathered points to the feature-computation input buffer.

The sorting workload therefore shrinks from "the whole input cloud" (what
brute-force KNN / PointACC's Mapping Unit sorts) to the last shell only,
which is the reduction plotted in Figure 15.

The semi-approximate variant of Section VIII-A replaces step 5 with a random
pick from the last shell, removing the remaining distance computations at a
small accuracy cost.

The expansion itself is batched across centroids: each round encodes the
whole Chebyshev stencil for every still-active centroid in one vectorised
pass (:meth:`repro.geometry.voxelgrid.VoxelGrid.shell_positions_batch`),
gathers all bucket contents with one ragged gather, and computes the
last-shell distances in one shot.  Results -- neighbor rows, counters, and
per-centroid stage statistics -- are bit-identical to the retained
per-centroid scalar reference (:func:`repro.kernels.reference.veg_scalar`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import OpCounters
from repro.datastructuring.base import Gatherer, GatherResult
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid, suggest_depth
from repro.kernels import (
    decode_cells,
    gather_ragged,
    segment_boundaries,
    sort_codes,
)


@dataclass
class VEGStageStats:
    """Per-centroid statistics of one VEG gathering (Figure 15/16 inputs).

    Attributes
    ----------
    expansions:
        Number of voxel expansions n performed (0 means the seed voxel alone
        already held K points).
    inner_points:
        Points gathered for free from shells 0..n-1 (``N0 + ... + N(n-1)``).
    last_shell_points:
        Points in the final shell Vn that had to be distance-sorted (``Nn``).
    sorted_candidates:
        Number of candidates that actually entered the sorter (equals
        ``last_shell_points`` for the exact method, 0 for semi-approximate).
    voxels_visited:
        Number of voxel lookups performed during the expansion.
    """

    expansions: int = 0
    inner_points: int = 0
    last_shell_points: int = 0
    sorted_candidates: int = 0
    voxels_visited: int = 0


@dataclass(eq=False)
class VEGRunStats:
    """VEG statistics of every centroid of one run.

    One ``int64`` column per :class:`VEGStageStats` field, row ``i``
    describing centroid ``i`` -- the arrays the batched gatherer already
    holds, which is also what the DSU cost model prices a frame from.
    :attr:`per_centroid` is the same data as one record per centroid,
    built on first use.
    """

    expansions: np.ndarray
    inner_points: np.ndarray
    last_shell_points: np.ndarray
    sorted_candidates: np.ndarray
    voxels_visited: np.ndarray

    @classmethod
    def from_stats(cls, per_centroid: Sequence[VEGStageStats]) -> "VEGRunStats":
        """Columns from one :class:`VEGStageStats` record per centroid."""
        return cls(
            **{
                column.name: np.array(
                    [getattr(stats, column.name) for stats in per_centroid],
                    dtype=np.int64,
                )
                for column in fields(VEGStageStats)
            }
        )

    @property
    def num_centroids(self) -> int:
        return int(self.expansions.shape[0])

    @cached_property
    def per_centroid(self) -> List[VEGStageStats]:
        return [
            VEGStageStats(*row)
            for row in zip(
                *(
                    getattr(self, column.name).tolist()
                    for column in fields(VEGStageStats)
                )
            )
        ]

    def total_sorted_candidates(self) -> int:
        return int(self.sorted_candidates.sum())

    def total_inner_points(self) -> int:
        return int(self.inner_points.sum())

    def mean_expansions(self) -> float:
        if not self.num_centroids:
            return 0.0
        return float(np.mean(self.expansions))

    def mean_sorted_candidates(self) -> float:
        if not self.num_centroids:
            return 0.0
        return float(np.mean(self.sorted_candidates))


@dataclass
class _ExpansionPool:
    """Flattened candidate points of a batched shell expansion.

    ``flat_points[row_bounds[i] : row_bounds[i+1]]`` are centroid ``i``'s
    candidates, ordered by shell radius then stencil enumeration then
    bucket order -- exactly the concatenation order of the scalar
    per-centroid expansion.
    """

    flat_points: np.ndarray
    point_radius: np.ndarray
    row_bounds: np.ndarray
    last_radius: np.ndarray
    voxels_visited: np.ndarray


class VoxelExpandedGatherer(Gatherer):
    """VEG gathering over a uniform voxel grid (the octree leaf level).

    Parameters
    ----------
    depth:
        Octree/grid depth; ``None`` chooses one from the input size so leaf
        voxels hold a handful of points.
    semi_approximate:
        Enable the semi-approximate variant (random picks from the last
        shell instead of distance sorting).
    ball_radius:
        When given, gather in ball-query mode: the expansion stops once the
        shells cover the ball of this radius, candidates outside the radius
        are dropped, and groups short of K are padded with the nearest point
        (the PointNet++ ball-query convention).  The paper notes VEG
        "can efficiently support commonly used DS methods, e.g. KNN and BQ";
        this is the BQ path.
    seed:
        RNG seed for the semi-approximate variant.
    """

    name = "veg"

    def __init__(
        self,
        depth: Optional[int] = None,
        semi_approximate: bool = False,
        ball_radius: Optional[float] = None,
        seed: int = 0,
    ):
        if ball_radius is not None and ball_radius <= 0:
            raise ValueError("ball_radius must be positive when given")
        self._depth = depth
        self._semi_approximate = semi_approximate
        self._ball_radius = ball_radius
        self._seed = seed

    # ------------------------------------------------------------------
    def gather(
        self,
        cloud: PointCloud,
        centroid_indices: np.ndarray,
        neighbors: int,
        grid: Optional[VoxelGrid] = None,
    ) -> GatherResult:
        """Gather neighbors; optionally reuse a pre-built ``grid``.

        Reusing the grid models HgPCN's amortisation of the octree built by
        the Pre-processing Engine.
        """
        self._validate(cloud, centroid_indices, neighbors)
        centroid_indices = np.asarray(centroid_indices, dtype=np.intp)
        rng = np.random.default_rng(self._seed)

        depth = self._depth or suggest_depth(cloud.num_points)
        if grid is None:
            grid = VoxelGrid.build(cloud, depth)
        else:
            depth = grid.depth

        counters = OpCounters()
        num_centroids = centroid_indices.shape[0]

        # Stage FP + LV for every centroid: fetch the central point and
        # locate its voxel.
        center_codes = grid.codes[centroid_indices]
        center_cells = decode_cells(center_codes, depth)
        counters.onchip_reads += num_centroids
        counters.node_visits += num_centroids

        if self._ball_radius is not None:
            rows, run_stats = self._gather_ball_batch(
                grid, cloud, centroid_indices, center_cells, neighbors,
                counters,
            )
        else:
            rows, run_stats = self._gather_knn_batch(
                grid, cloud, centroid_indices, center_cells, neighbors,
                rng, counters,
            )

        return GatherResult(
            neighbor_indices=rows,
            centroid_indices=centroid_indices,
            counters=counters,
            method=self.name,
            info={
                "depth": depth,
                "semi_approximate": self._semi_approximate,
                "ball_radius": self._ball_radius,
                "run_stats": run_stats,
            },
        )

    # ------------------------------------------------------------------
    def _expand(
        self,
        grid: VoxelGrid,
        center_cells: np.ndarray,
        target_counts: Optional[np.ndarray],
        max_radius: int,
        counters: OpCounters,
    ) -> _ExpansionPool:
        """Batched stage VE: expand shells for all centroids at once.

        Per round, every still-active centroid's Chebyshev stencil is
        encoded and looked up in one pass.  A centroid stays active while
        its gathered total is below ``target_counts`` (or, when that is
        ``None``, until ``max_radius`` is exhausted -- the ball-query
        variant, whose shell count is fixed up front).
        """
        num_centroids = center_cells.shape[0]
        active = np.arange(num_centroids, dtype=np.intp)
        gathered = np.zeros(num_centroids, dtype=np.int64)
        last_radius = np.zeros(num_centroids, dtype=np.int64)
        voxels_visited = np.zeros(num_centroids, dtype=np.int64)

        row_records: List[np.ndarray] = []
        position_records: List[np.ndarray] = []
        radius_records: List[np.ndarray] = []

        radius = 0
        while active.size and radius <= max_radius:
            positions, found = grid.shell_positions_batch(
                center_cells[active], radius
            )
            shell_voxels = found.sum(axis=1)
            shell_points = np.where(found, grid.counts[positions], 0).sum(axis=1)
            visited = np.maximum(1, shell_voxels)
            voxels_visited[active] += visited
            counters.node_visits += int(visited.sum())
            gathered[active] += shell_points

            rows_flat = np.repeat(active, shell_voxels)
            row_records.append(rows_flat)
            position_records.append(positions[found])
            radius_records.append(
                np.full(rows_flat.shape[0], radius, dtype=np.int64)
            )

            if target_counts is None:
                last_radius[active] = radius
            else:
                done = gathered[active] >= target_counts[active]
                last_radius[active[done]] = radius
                active = active[~done]
            radius += 1
        if target_counts is not None and active.size:
            # Grid exhausted before the targets were met; the final shell
            # appended is the one at max_radius.
            last_radius[active] = radius - 1

        rows_all = np.concatenate(row_records) if row_records else np.zeros(0, dtype=np.intp)
        positions_all = np.concatenate(position_records) if position_records else np.zeros(0, dtype=np.intp)
        radius_all = np.concatenate(radius_records) if radius_records else np.zeros(0, dtype=np.int64)

        # Group the visited voxels by centroid; the stable sort preserves the
        # radius-then-stencil enumeration order inside each group, so the
        # flattened candidates match the scalar shell concatenation exactly.
        grouped, rows_sorted = sort_codes(rows_all)
        positions_sorted = positions_all[grouped]
        radius_sorted = radius_all[grouped]

        flat_points, voxel_segment = gather_ragged(
            grid.order,
            grid.starts[positions_sorted],
            grid.counts[positions_sorted],
        )
        point_row = rows_sorted[voxel_segment]
        point_radius = radius_sorted[voxel_segment]
        row_bounds = segment_boundaries(point_row, num_centroids)
        return _ExpansionPool(
            flat_points=flat_points,
            point_radius=point_radius,
            row_bounds=row_bounds,
            last_radius=last_radius,
            voxels_visited=voxels_visited,
        )

    # ------------------------------------------------------------------
    def _gather_knn_batch(
        self,
        grid: VoxelGrid,
        cloud: PointCloud,
        centroid_indices: np.ndarray,
        center_cells: np.ndarray,
        neighbors: int,
        rng: np.random.Generator,
        counters: OpCounters,
    ) -> Tuple[np.ndarray, VEGRunStats]:
        points = cloud.points
        num_centroids = centroid_indices.shape[0]
        targets = np.full(num_centroids, neighbors, dtype=np.int64)
        pool = self._expand(
            grid, center_cells, targets, grid.resolution, counters
        )

        # Within a centroid's slice the candidates are radius-ascending, so
        # the inner shells are a prefix and the last shell the suffix.
        total_counts = np.diff(pool.row_bounds)
        point_rows = np.repeat(
            np.arange(num_centroids, dtype=np.intp), total_counts
        )
        is_last = pool.point_radius == pool.last_radius[point_rows]
        last_counts = np.bincount(
            point_rows[is_last], minlength=num_centroids
        ).astype(np.int64)
        inner_counts = total_counts - last_counts
        counters.host_memory_reads += int(inner_counts.sum())

        # Stage ST: distances for the last-shell candidates only, in one
        # vectorised pass over every centroid's shell.
        exact = not self._semi_approximate
        if exact:
            last_points = pool.flat_points[is_last]
            last_rows = point_rows[is_last]
            last_dists = (
                (points[last_points] - points[centroid_indices[last_rows]]) ** 2
            ).sum(axis=1)
            last_bounds = segment_boundaries(last_rows, num_centroids)
            counters.distance_computations += int(last_counts.sum())
            counters.compare_ops += int(last_counts.sum())
            counters.host_memory_reads += int(last_counts.sum())
        else:
            last_dists = np.zeros(0)
            last_bounds = np.zeros(num_centroids + 1, dtype=np.intp)

        rows = np.empty((num_centroids, neighbors), dtype=np.intp)
        for row in range(num_centroids):
            start, end = pool.row_bounds[row], pool.row_bounds[row + 1]
            inner_n = int(inner_counts[row])
            inner = pool.flat_points[start : start + inner_n]
            last_shell = pool.flat_points[start + inner_n : end]
            still_needed = neighbors - inner_n

            if exact:
                dist = last_dists[last_bounds[row] : last_bounds[row + 1]]
                order = np.argsort(dist)[:still_needed]
                tail = last_shell[order]
            else:
                if last_shell.shape[0] <= still_needed:
                    tail = last_shell
                else:
                    tail = rng.choice(
                        last_shell, size=still_needed, replace=False
                    )
                counters.host_memory_reads += int(tail.shape[0])
            selection = np.concatenate([inner, tail])
            if selection.shape[0] < neighbors:
                # Grid exhausted before K points were found (tiny clouds or
                # boundary centroids in the semi-approximate mode): pad with
                # the nearest gathered point, mirroring the ball-query
                # padding convention.
                pad = np.full(
                    neighbors - selection.shape[0],
                    selection[0] if selection.shape[0] else centroid_indices[row],
                    dtype=np.intp,
                )
                selection = np.concatenate([selection, pad])

            # Stage BF: write the K gathered points to the input buffer.
            counters.onchip_writes += neighbors
            rows[row] = selection[:neighbors]
        return rows, VEGRunStats(
            expansions=pool.last_radius,
            inner_points=inner_counts,
            last_shell_points=last_counts,
            sorted_candidates=last_counts if exact else np.zeros_like(last_counts),
            voxels_visited=pool.voxels_visited,
        )

    # ------------------------------------------------------------------
    def _gather_ball_batch(
        self,
        grid: VoxelGrid,
        cloud: PointCloud,
        centroid_indices: np.ndarray,
        center_cells: np.ndarray,
        neighbors: int,
        counters: OpCounters,
    ) -> Tuple[np.ndarray, VEGRunStats]:
        """Ball-query gathering: expand only as far as the ball reaches.

        The number of shells is fixed by the ball radius and the voxel edge
        length, so the expansion never depends on the input cloud size;
        every candidate inside the covered shells is distance-checked
        against the radius and at most K of the in-ball points are kept.
        """
        points = cloud.points
        num_centroids = centroid_indices.shape[0]
        radius = float(self._ball_radius)
        cell = float(grid.cell_size().min())
        shell_limit = min(
            grid.resolution, int(np.ceil(radius / max(cell, 1e-12))) + 1
        )
        pool = self._expand(grid, center_cells, None, shell_limit, counters)

        pool_counts = np.diff(pool.row_bounds)
        point_rows = np.repeat(
            np.arange(num_centroids, dtype=np.intp), pool_counts
        )
        dists = (
            (points[pool.flat_points] - points[centroid_indices[point_rows]])
            ** 2
        ).sum(axis=1)
        counters.distance_computations += int(pool_counts.sum())
        counters.compare_ops += int(pool_counts.sum())
        counters.host_memory_reads += int(pool_counts.sum())

        radius_sq = radius**2
        rows = np.empty((num_centroids, neighbors), dtype=np.intp)
        for row in range(num_centroids):
            start, end = pool.row_bounds[row], pool.row_bounds[row + 1]
            candidates = pool.flat_points[start:end]
            dist = dists[start:end]
            inside = candidates[dist <= radius_sq]
            inside_dist = dist[dist <= radius_sq]
            order = np.argsort(inside_dist)
            inside = inside[order]
            if inside.shape[0] >= neighbors:
                selection = inside[:neighbors]
            else:
                # PointNet++ convention: pad with the nearest in-ball point
                # (or the centroid itself when the ball is empty).
                fill_value = (
                    inside[0] if inside.shape[0] else centroid_indices[row]
                )
                pad = np.full(
                    neighbors - inside.shape[0], fill_value, dtype=np.intp
                )
                selection = np.concatenate([inside, pad])
            counters.onchip_writes += neighbors
            rows[row] = selection
        pool_counts = pool_counts.astype(np.int64)
        return rows, VEGRunStats(
            expansions=np.full(num_centroids, shell_limit, dtype=np.int64),
            inner_points=np.zeros(num_centroids, dtype=np.int64),
            last_shell_points=pool_counts,
            sorted_candidates=pool_counts,
            voxels_visited=pool.voxels_visited,
        )
