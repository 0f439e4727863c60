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

Every centroid runs at once, in counts, runs and one sort:

* **VE by counts.**  Shells ``0..r`` make the Chebyshev cube of radius
  ``r``, whose ``(2r + 1)**2`` ``(x, y)`` columns are each one z-run of the
  grid's row-major cell order.  Two prefix reads per run
  (:meth:`~repro.geometry.voxelgrid.VoxelGrid.cells_before`) count a
  cube's points and occupied voxels; a round counts every still-active
  centroid's cube, a shell is the difference of two cubes, and a centroid
  stops at the first radius whose cube holds K points.
* **GP by runs.**  Each final cube's z-runs are sliced out of the
  row-major order in one ragged gather, already split into the inner cube
  and the last shell.
* **ST as one sort.**  Every candidate becomes one packed ``int64`` key
  ``(centroid, rank of its sort key, point index)``: inner points take
  rank 0, last-shell points the dense rank of their squared distance (a
  uniform draw in the semi-approximate mode).  The keys are unique, so one
  ``np.sort`` of them is one total order whatever NumPy's sort algorithm,
  and each row is its centroid's first K keys.

Rows list the inner points in ascending index, then the last shell in
ascending ``(key, index)``, then padding.  Rows, counters and per-centroid
stage statistics are bit-identical to the per-centroid shell walk retained
as :func:`repro.kernels.reference.veg_scalar`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import OpCounters
from repro.datastructuring.base import Gatherer, GatherResult
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid, suggest_depth
from repro.kernels import gather_ragged


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


def _dense_ranks(keys: np.ndarray) -> np.ndarray:
    """1-based rank of every key among the distinct keys; ties share one.

    Equal keys get one rank whichever order the sort leaves them in.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.ones(keys.shape[0], dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ranks = np.empty_like(new)
    ranks[order] = np.cumsum(new)
    return ranks


def _sq_dists(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the points indexed by ``a`` and by ``b``.

    Summed one coordinate at a time as ``(dx*dx + dy*dy) + dz*dz``, which
    is the association of ``((points[a] - points[b]) ** 2).sum(axis=1)``.
    """
    total = None
    for axis in range(points.shape[1]):
        column = points[:, axis]
        delta = column[a] - column[b]
        delta *= delta
        total = delta if total is None else np.add(total, delta, out=total)
    return total


def _first_k(
    rows: np.ndarray,
    ranks: np.ndarray,
    points: np.ndarray,
    num_points: int,
    neighbors: int,
    fill: np.ndarray,
) -> np.ndarray:
    """Each row's first ``neighbors`` candidates in ``(rank, index)`` order.

    Candidate ``j`` belongs to row ``rows[j]``.  The packed keys ``(row,
    rank, index)`` are unique, so one ``np.sort`` orders every row at once
    whatever the sort algorithm; triples too wide for 63 bits take the
    equivalent ``lexsort``.  A row short of ``neighbors`` is padded with its
    first entry, or with ``fill[row]`` when it has none.
    """
    index_bits = max(1, (num_points - 1).bit_length())
    rank_bits = max(1, int(ranks.max(initial=0)).bit_length())
    if (fill.shape[0] - 1).bit_length() + rank_bits + index_bits <= 63:
        keys = rows.astype(np.int64) << (rank_bits + index_bits)
        keys |= ranks << index_bits
        keys |= points
        keys.sort()
        ordered = keys & ((1 << index_bits) - 1)
    else:
        ordered = points[np.lexsort((points, ranks, rows))]
    counts = np.bincount(rows, minlength=fill.shape[0])[:, None]
    column = np.arange(neighbors)
    take = np.cumsum(counts)[:, None] - counts + np.where(column < counts, column, 0)
    selected = np.append(ordered, 0)[take]
    return np.where(counts > 0, selected, fill[:, None]).astype(np.intp)


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
        the Pre-processing Engine; its row-major arrays are built on the
        first gather and kept with it.
        """
        self._validate(cloud, centroid_indices, neighbors)
        centroid_indices = np.asarray(centroid_indices, dtype=np.intp)

        depth = self._depth or suggest_depth(cloud.num_points)
        if grid is None:
            grid = VoxelGrid.build(cloud, depth)
        else:
            depth = grid.depth

        counters = OpCounters()
        num_centroids = centroid_indices.shape[0]

        # Stage FP + LV for every centroid: fetch the central point and
        # locate its voxel.
        linear = grid.linear_cells[centroid_indices]
        mask = grid.resolution - 1
        centers = np.stack(
            [linear >> (2 * depth), (linear >> depth) & mask, linear & mask]
        )
        counters.onchip_reads += num_centroids
        counters.node_visits += num_centroids

        # Ball query expands a fixed number of shells, set by the radius
        # and the voxel edge, so never by the cloud size; every candidate
        # is then distance-checked against the radius.
        ball = self._ball_radius is not None
        shell_limit = None
        if ball:
            cell = float(grid.cell_size().min())
            shell_limit = min(
                grid.resolution,
                int(np.ceil(self._ball_radius / max(cell, 1e-12))) + 1,
            )
        (
            last_radius,
            inner_counts,
            cube_counts,
            voxels_visited,
            (inner_rows, inner_points),
            (last_rows, last_points),
        ) = self._grow_cubes(
            grid, centers, counters, None if ball else neighbors, shell_limit
        )
        last_counts = cube_counts - inner_counts
        counters.host_memory_reads += int(inner_counts.sum())

        exact = ball or not self._semi_approximate
        if exact:
            # Stage ST: distances for the last-shell candidates only.
            keys = _sq_dists(cloud.points, last_points, centroid_indices[last_rows])
            total_last = int(last_counts.sum())
            counters.distance_computations += total_last
            counters.compare_ops += total_last
            counters.host_memory_reads += total_last
        else:
            # One uniform draw per last-shell candidate, in (centroid,
            # index) order.
            order = np.lexsort((last_points, last_rows))
            last_rows, last_points = last_rows[order], last_points[order]
            keys = np.random.default_rng(self._seed).random(last_points.shape[0])
            counters.host_memory_reads += int(
                np.minimum(last_counts, neighbors - inner_counts).sum()
            )
        if ball:
            inside = keys <= self._ball_radius**2
            last_rows, last_points, keys = (
                last_rows[inside], last_points[inside], keys[inside]
            )

        # Stage BF: write the K gathered points to the input buffer.
        rows = _first_k(
            np.concatenate([inner_rows, last_rows]),
            np.concatenate([np.zeros_like(inner_rows), _dense_ranks(keys)]),
            np.concatenate([inner_points, last_points]),
            cloud.num_points,
            neighbors,
            centroid_indices,
        )
        counters.onchip_writes += num_centroids * neighbors
        run_stats = VEGRunStats(
            expansions=last_radius,
            inner_points=inner_counts,
            last_shell_points=last_counts,
            sorted_candidates=last_counts if exact else np.zeros_like(last_counts),
            voxels_visited=voxels_visited,
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
    @staticmethod
    def _grow_cubes(
        grid: VoxelGrid,
        centers: np.ndarray,
        counters: OpCounters,
        neighbors: Optional[int],
        shell_limit: Optional[int] = None,
    ) -> Tuple[np.ndarray, ...]:
        """Stages VE and GP, for every centroid at once.

        Round ``r`` counts the points and occupied voxels of each active
        centroid's radius-``r`` cube; the shell is the difference from
        round ``r - 1`` and costs ``max(1, its occupied voxels)`` lookups.
        A centroid stops at the first cube holding ``neighbors`` points (the
        radius ``R - 1`` cube holds the whole cloud, at least K) or, in ball
        query (``neighbors`` is ``None``), at ``shell_limit``.  Its final
        cube's z-runs then split without per-point work: the radius ``r -
        1`` cube is inner, so an inner column gives its end cells at ``cz -
        r`` and ``cz + r`` to the last shell and a ring column all of it.
        Ball query has no inner part.

        Returns ``(last_radius, inner_points, cube_points, voxels_visited,
        inner, last)``: per centroid the final radius, the points in the
        cube before it and in it, and the lookups; then the inner and the
        last-shell candidates as ``(rows, point_indices)``.
        """
        num_centroids = centers.shape[1]
        top = grid.resolution - 1
        last_radius, inner_points, cube_points, cube_voxels, voxels_visited = (
            np.zeros((5, num_centroids), dtype=np.int64)
        )
        # (rows, start, stop) runs of the row-major point order, per kind.
        inner_runs: List[Tuple[np.ndarray, ...]] = []
        last_runs: List[Tuple[np.ndarray, ...]] = []

        # Centroids in row-major cell order: each column's runs then rise
        # along the active axis, so prefix reads walk memory forwards.
        active = np.lexsort(centers[::-1])
        for radius in itertools.count():
            if not active.size:
                break
            lo, hi = grid.cube_runs(centers[:, active], radius)
            start, voxels_lo = grid.cells_before(lo)
            stop, voxels_hi = grid.cells_before(hi)
            points = (stop - start).sum(axis=0)
            voxels = (voxels_hi - voxels_lo).sum(axis=0)
            visited = np.maximum(1, voxels - cube_voxels[active])
            voxels_visited[active] += visited
            counters.node_visits += int(visited.sum())
            cube_voxels[active] = voxels

            if neighbors is None:
                done = np.full(active.shape[0], radius == shell_limit)
            else:
                done = points >= neighbors
                inner_points[active[done]] = cube_points[active[done]]
            finished = active[done]
            last_radius[finished] = radius
            cube_points[active] = points
            active = active[~done]
            if not finished.size:
                continue

            rows = np.broadcast_to(finished, (lo.shape[0], finished.shape[0]))
            lo, hi, start, stop = (a[:, done] for a in (lo, hi, start, stop))
            if neighbors is None or radius == 0:
                last_runs.append((rows, start, stop))
                continue
            side = 2 * radius + 1
            ring = np.ones((side, side), dtype=bool)
            ring[1:-1, 1:-1] = False
            ring = ring.reshape(-1)
            last_runs.append((rows[ring], start[ring], stop[ring]))
            lo, hi, start, stop, rows = (a[~ring] for a in (lo, hi, start, stop, rows))
            z = centers[2, finished]
            in_grid = hi > lo
            inner_start = grid.points_before(
                np.where(in_grid & (z >= radius), lo + 1, lo)
            )
            inner_stop = grid.points_before(
                np.where(in_grid & (z + radius <= top), hi - 1, hi)
            )
            inner_runs.append((rows, inner_start, inner_stop))
            last_runs.append((rows, start, inner_start))
            last_runs.append((rows, inner_stop, stop))

        def collect(runs):
            if not runs:
                return np.zeros((2, 0), dtype=np.intp)
            rows, starts, stops = (
                np.concatenate([part.reshape(-1) for part in parts])
                for parts in zip(*runs)
            )
            points, segment = gather_ragged(grid.row_major[0], starts, stops - starts)
            return rows[segment], points

        return (
            last_radius,
            inner_points,
            cube_points,
            voxels_visited,
            collect(inner_runs),
            collect(last_runs),
        )
