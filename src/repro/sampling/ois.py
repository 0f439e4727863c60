"""Octree-Indexed Sampling (OIS) -- the paper's Algorithm 2.

OIS replaces the point-wise distance scans of FPS with spatial-index
operations:

1. **Octree-build Unit (CPU):** build an octree over the raw frame in a
   single pass and reorganise the points in host memory into SFC leaf order
   (:class:`~repro.octree.memory_layout.HostMemoryLayout`).
2. **Down-sampling Unit (FPGA):** to pick the next sample, descend the
   Octree-Table from the root, at every level choosing the child voxel whose
   m-code is farthest (by Hamming distance) from the current seed voxel;
   within the reached leaf the point is chosen by SFC order.  Only the
   finally selected point is read from host memory, so the per-iteration
   memory traffic drops from O(N) to O(depth).

The functional implementation below produces a real sample set and real
operation counts; the paper-scale analytic model is exposed separately as
:func:`ois_counter_model` so benchmarks can report counts for million-point
frames without materialising them.

The sampling loop is one plain root-to-leaf walk per pick over per-level
Python lists (at most eight children are ranked per level, where plain ints
beat array dispatch).  It reads the octree's SFC point permutation directly
instead of materialising the reorganised host copy.  Picks, per-pick
counters, and SFC tie-breaks are bit-identical to the retained reference
loop (:func:`repro.kernels.reference.ois_sample_scalar`) in both modes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.metrics import OpCounters
from repro.geometry.pointcloud import PointCloud
from repro.kernels import encode_point_scalar
from repro.geometry.voxelgrid import suggest_depth
from repro.octree.builder import Octree
from repro.sampling.base import Sampler, SamplingResult

#: Hamming weight of a 3-bit octant digit.
_POPCOUNT3 = (0, 1, 1, 2, 1, 2, 2, 3)

_EXHAUSTED = "octree exhausted before collecting the requested samples"

#: Below every reachable key (keys are >= -64 * num_samples).
_NO_KEY = -(1 << 62)


def ois_counter_model(
    num_points: int,
    num_samples: int,
    octree_depth: int,
    num_sampling_modules: int = 8,
    include_build: bool = True,
    count_seed_descent: bool = True,
) -> OpCounters:
    """Analytic operation counts of Algorithm 2.

    * Octree build: one streaming read of the raw frame plus one write per
      point for the reorganised copy (when ``include_build``).
    * Per sample: one Octree-Table walk of ``octree_depth`` levels.  At each
      level the Sampling Modules evaluate up to eight child voxels
      (Hamming distances) in parallel; all of that traffic stays on chip.
    * Per sample: exactly one host-memory read (the picked point) and one
      on-chip write into the Sampled-Point-Table.

    ``count_seed_descent=True`` models the paper's accounting, where every
    sample is charged one table walk.  The functional sampler draws its
    seed sample directly (no descent), so its measured counters correspond
    to ``count_seed_descent=False``: ``num_samples - 1`` walks, while the
    per-sample host read / SPT write is still charged for all samples.  On
    a frame whose octree keeps all eight children of every visited node
    eligible, the model with ``count_seed_descent=False`` matches the
    functional counters exactly (see ``tests/test_sampling_ois.py``).
    """
    if octree_depth < 1:
        raise ValueError("octree_depth must be >= 1")
    counters = OpCounters()
    if include_build:
        counters.host_memory_reads += num_points
        counters.host_memory_writes += num_points
        # m-code computation + bucket insertion during the single build pass
        # (kept consistent with ``hardware.octree_build_unit``).
        counters.compare_ops += num_points * (octree_depth + 2)
    per_level_children = min(8, max(1, num_sampling_modules))
    walks = num_samples if count_seed_descent else max(0, num_samples - 1)
    counters.node_visits += walks * octree_depth
    counters.hamming_ops += walks * octree_depth * per_level_children
    counters.onchip_reads += walks * octree_depth * per_level_children
    counters.compare_ops += walks * octree_depth * per_level_children
    counters.host_memory_reads += num_samples
    counters.onchip_writes += num_samples
    return counters


class OctreeIndexedSampler(Sampler):
    """Functional OIS implementation with operation accounting.

    Parameters
    ----------
    octree_depth:
        Depth of the octree; ``None`` picks a depth from the frame size.
    num_sampling_modules:
        Voxel-level parallelism of the Down-sampling Unit (Figure 7b).  The
        functional result does not depend on it; the hardware latency model
        does, and the counters record the work as if all children of a node
        are evaluated (which the modules do in parallel).
    approximate:
        Enable the approximate OIS-based FPS of Section VIII-A: once the
        walk reaches the leaf, a random unpicked point of the leaf replaces
        the SFC-extreme point.
    count_build_at_scale:
        When given, build-phase counters are reported for a frame of this
        many points (paper-scale) while the functional pass runs on the
        actual input.
    """

    name = "ois"

    def __init__(
        self,
        octree_depth: Optional[int] = None,
        num_sampling_modules: int = 8,
        approximate: bool = False,
        seed: int = 0,
        count_build_at_scale: Optional[int] = None,
    ):
        self._octree_depth = octree_depth
        self._num_sampling_modules = num_sampling_modules
        self._approximate = approximate
        self._seed = seed
        self._count_build_at_scale = count_build_at_scale

    # ------------------------------------------------------------------
    def sample(
        self,
        cloud: PointCloud,
        num_samples: int,
        octree: Optional[Octree] = None,
    ) -> SamplingResult:
        """Down-sample ``cloud``; optionally reuse a pre-built ``octree``.

        Passing a pre-built octree models the amortisation the paper points
        out: the VEG method of the Inference Engine reuses the same octree,
        so its build cost is paid once per frame.
        """
        self._validate(cloud, num_samples)
        rng = np.random.default_rng(self._seed)
        counters = OpCounters()

        depth = self._octree_depth or suggest_depth(cloud.num_points)
        if octree is None:
            octree = Octree.build(cloud, depth=depth)
            build_reads = octree.stats.host_memory_reads
            build_writes = octree.stats.host_memory_writes
            if self._count_build_at_scale is not None:
                scale = self._count_build_at_scale / max(1, cloud.num_points)
                build_reads = int(round(build_reads * scale))
                build_writes = int(round(build_writes * scale))
            counters.host_memory_reads += build_reads
            counters.host_memory_writes += build_writes
        else:
            depth = octree.depth

        picked = self._run_sampling_loop(octree, num_samples, rng, counters)
        return self._result(
            cloud,
            np.asarray(picked, dtype=np.intp),
            counters,
            info={
                "octree_depth": depth,
                "octree_nodes": octree.num_nodes,
                "octree_leaves": octree.num_leaves,
                "octree_build_stats": octree.stats,
                "approximate": self._approximate,
            },
        )

    # ------------------------------------------------------------------
    def _run_sampling_loop(
        self,
        octree: Octree,
        num_samples: int,
        rng: np.random.Generator,
        counters: OpCounters,
    ) -> List[int]:
        """One exact Octree-Table walk per pick over per-level lists.

        Level ``L`` of the table is held as plain lists indexed by node
        (codes in ascending order): remaining and picked point counts, the
        low 3 code bits, and child bounds -- node ``i``'s children are
        ``[bounds[i], bounds[i + 1])`` of level ``L + 1``.  Siblings share
        every code bit above their own octant digit, so their Hamming
        distances to the seed prefix differ from their digit's distance to
        the seed's digit by one constant per slice: ranking by
        ``popcount(low3 ^ digit) - (picked << 6)`` keeps the winner, the
        first-maximum SFC tie-break and the eligible counts of the
        full-code ranking of
        :func:`repro.kernels.reference.ois_sample_scalar`.  Committing a
        pick updates the ``depth`` nodes the walk chose.
        """
        depth = octree.depth
        points = octree.cloud.points
        point_codes = octree.point_codes
        leaf_codes = octree.leaf_codes
        level_codes = octree.codes_per_level()
        slot_bounds = octree.leaf_slot_bounds()

        # Per-level table state, one tuple per level 1..depth:
        # (remaining, picked, low3, child bounds, digit shift).  A node's
        # children are one contiguous run of the next level's sorted codes
        # (its parent prefix is code >> 3), so the bounds are where the
        # prefix changes, and a node's remaining count sums its run.
        table = []
        bounds: Optional[List[int]] = None
        counts = np.diff(slot_bounds)
        for level in range(depth, 0, -1):
            codes = level_codes[level]
            table.append(
                (
                    counts.tolist(),
                    [0] * codes.shape[0],
                    (codes & 0b111).tolist(),
                    bounds,
                    3 * (depth - level),
                )
            )
            prefixes = codes >> 3
            first = np.empty(codes.shape[0], dtype=bool)
            first[:1] = True
            np.not_equal(prefixes[1:], prefixes[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            counts = np.add.reduceat(counts, starts)
            bounds = np.append(starts, codes.shape[0]).tolist()
        table.reverse()

        # Remaining points of a leaf, in SFC order.  Exact mode only ever
        # takes points off a leaf's ends, so each leaf is a shrinking
        # [window_lo, window_hi) window into the slot permutation; the
        # approximate mode draws random in-leaf offsets, so its leaves
        # become Python lists on first use.
        slots = np.array(octree.points_in_sfc_order())
        window_lo = slot_bounds[:-1].copy()
        window_hi = slot_bounds[1:].copy()
        buckets: List[Optional[List[int]]] = [None] * leaf_codes.shape[0]

        def bucket_of(leaf: int) -> List[int]:
            bucket = buckets[leaf]
            if bucket is None:
                bucket = slots[window_lo[leaf] : window_hi[leaf]].tolist()
                buckets[leaf] = bucket
            return bucket

        # Seed point: random pick, written into the first SPT entry.  It is
        # the only pick without a walk, so its ancestors are looked up.
        seed_index = int(rng.integers(octree.cloud.num_points))
        seed_point_code = int(point_codes[seed_index])
        for level, (rem, pick, _, _, shift) in enumerate(table, start=1):
            node = int(np.searchsorted(level_codes[level], seed_point_code >> shift))
            rem[node] -= 1
            pick[node] += 1
        leaf = node
        if self._approximate:
            bucket_of(leaf).remove(seed_index)
        else:
            # The only mid-window removal: shift the leaf's lower part up
            # one slot so the window stays contiguous and SFC-ordered.
            lo = int(window_lo[leaf])
            pos = lo + int(
                np.flatnonzero(slots[lo : window_hi[leaf]] == seed_index)[0]
            )
            slots[lo + 1 : pos + 1] = slots[lo:pos]
            window_lo[leaf] = lo + 1

        picked = [seed_index]
        sum_x, sum_y, sum_z = points[seed_index].tolist()
        box = octree.box
        box_minimum = tuple(box.minimum.tolist())
        extent = tuple(np.where(box.size > 0, box.size, 1.0).tolist())
        num_top = level_codes[1].shape[0]
        approximate = self._approximate
        work = 0
        for count in range(1, num_samples):
            # Virtual summary point ||S||_2 of the picked set (Section V-B).
            seed_code = encode_point_scalar(
                (sum_x / count, sum_y / count, sum_z / count),
                box_minimum,
                extent,
                depth,
            )
            lo, hi = 0, num_top
            for rem, pick, low, bounds, shift in table:
                digit = (seed_code >> shift) & 0b111
                best_key = _NO_KEY
                for child in range(lo, hi):
                    if rem[child]:
                        work += 1
                        # (-picked, hamming) packed into one int key; strict
                        # > keeps the first maximum (the SFC tie-break).
                        key = _POPCOUNT3[low[child] ^ digit] - (pick[child] << 6)
                        if key > best_key:
                            best_key = key
                            node = child
                if best_key == _NO_KEY:
                    raise RuntimeError(_EXHAUSTED)
                rem[node] -= 1
                pick[node] += 1
                if bounds is not None:
                    lo = bounds[node]
                    hi = bounds[node + 1]

            if approximate:
                bucket = bucket_of(node)
                index = bucket.pop(int(rng.integers(len(bucket))))
            elif seed_code <= int(leaf_codes[node]):
                # Exact rule: the end of the leaf's SFC order farthest from
                # the seed side of the curve.
                end = int(window_hi[node]) - 1
                window_hi[node] = end
                index = int(slots[end])
            else:
                start = int(window_lo[node])
                window_lo[node] = start + 1
                index = int(slots[start])
            picked.append(index)
            x, y, z = points[index].tolist()
            sum_x += x
            sum_y += y
            sum_z += z

        walks = num_samples - 1
        counters.node_visits += walks * depth
        counters.hamming_ops += work
        counters.onchip_reads += work
        counters.compare_ops += work
        counters.host_memory_reads += num_samples
        counters.onchip_writes += num_samples
        return picked
