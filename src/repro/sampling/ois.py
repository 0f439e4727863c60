"""Octree-Indexed Sampling (OIS) -- the paper's Algorithm 2.

OIS replaces the point-wise distance scans of FPS with spatial-index
operations:

1. **Octree-build Unit (CPU):** build an octree over the raw frame in a
   single pass and reorganise the points in host memory into SFC leaf order
   (the octree's SFC point permutation,
   :meth:`~repro.octree.builder.Octree.points_in_sfc_order`).
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
Python lists of 8-bit child masks, so a level picks its child with one
table read.  It reads the octree's SFC point permutation, the reorganised
host copy, directly.  Picks, per-pick counters,
and SFC tie-breaks are bit-identical to the retained reference loop
(:func:`repro.kernels.reference.ois_sample_scalar`) in both modes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.metrics import OpCounters
from repro.geometry.pointcloud import PointCloud
from repro.kernels import point_encoder
from repro.geometry.voxelgrid import suggest_depth
from repro.octree.builder import Octree
from repro.sampling.base import Sampler, SamplingResult

#: Hamming weight of an 8-bit child mask.
_POPCOUNT8 = tuple(bin(mask).count("1") for mask in range(256))

#: ``_BEST[(round << 3) | digit]``: the digit set in ``round`` farthest
#: (Hamming) from ``digit``, the lowest one on a tie.
_BEST = tuple(
    max((d for d in range(8) if rnd >> d & 1), default=0,
        key=lambda d: (_POPCOUNT8[d ^ digit], -d))
    for rnd in range(256) for digit in range(8)
)

#: ``_RANK[(kids << 3) | digit]``: how many digits set in ``kids`` are below
#: ``digit`` -- a child's position among its code-sorted siblings.
_RANK = tuple(
    _POPCOUNT8[kids & ((1 << d) - 1)] for kids in range(256) for d in range(8)
)


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
        """One exact Octree-Table walk per pick, one table read per level.

        Level ``L`` is held as plain lists indexed by parent node (level 1
        has one virtual root): the first child's position; 8-bit digit
        masks of the children that exist (``kids``), that still hold points
        (``live``), and that are live but not yet picked in the parent's
        current round; and the children's remaining counts.  Live siblings'
        pick counts never differ by more than one, so least-picked-first
        keeps exactly the round, and within it the largest Hamming distance
        (lowest digit on ties) is ``_BEST[(round << 3) | digit]`` -- see
        DESIGN.md, *OIS walk*.  Picks and counters are those of
        :func:`repro.kernels.reference.ois_sample_scalar`.
        """
        # A walk only enters nodes that still hold points, so it runs dry
        # exactly when the root does: after the octree's last point.
        if num_samples > octree.cloud.num_points:
            raise RuntimeError(
                "octree exhausted before collecting the requested samples"
            )
        depth = octree.depth
        points = octree.cloud.points
        point_codes = octree.point_codes
        leaf_codes = octree.leaf_codes
        level_codes = octree.codes_per_level()
        slot_bounds = octree.leaf_slot_bounds()

        # Per-level table state, one tuple per level 1..depth:
        # (first child, kids, live, round, remaining, digit shift).  A
        # parent's children are one contiguous run of the level's sorted
        # codes (its prefix is code >> 3) with distinct digits, so the
        # runs start where the prefix changes, a run's digit bits sum to
        # its kids mask, and a parent's remaining count sums its run.
        table = []
        counts = np.diff(slot_bounds)
        for level in range(depth, 0, -1):
            codes = level_codes[level]
            starts = np.flatnonzero(np.diff(codes >> 3, prepend=-1))
            kids = np.add.reduceat(1 << (codes & 0b111), starts).tolist()
            table.append((starts.tolist(), kids, kids[:], kids[:],
                          counts.tolist(), 3 * (depth - level)))
            counts = np.add.reduceat(counts, starts)
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
        # the only pick without a walk; it descends along its own digits
        # with the same commit as a walk step.
        seed_index = int(rng.integers(octree.cloud.num_points))
        seed_point_code = int(point_codes[seed_index])
        node = 0
        for first, kids, live, rounds, rem, shift in table:
            win = (seed_point_code >> shift) & 0b111
            child = first[node] + _RANK[(kids[node] << 3) | win]
            bit = 1 << win
            rem[child] -= 1
            if not rem[child]:
                live[node] ^= bit
            rounds[node] = rounds[node] ^ bit or live[node]
            node = child
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
        encode = point_encoder(
            box.minimum.tolist(),
            np.where(box.size > 0, box.size, 1.0).tolist(),
            depth,
        )
        approximate = self._approximate
        work = 0
        for count in range(1, num_samples):
            # Virtual summary point ||S||_2 of the picked set (Section V-B).
            seed_code = encode(sum_x / count, sum_y / count, sum_z / count)
            node = 0
            for first, kids, live, rounds, rem, shift in table:
                win = _BEST[(rounds[node] << 3) | ((seed_code >> shift) & 0b111)]
                child = first[node] + _RANK[(kids[node] << 3) | win]
                alive = live[node]
                # The modules rank every live child of the node.
                work += _POPCOUNT8[alive]
                bit = 1 << win
                rem[child] -= 1
                if not rem[child]:
                    alive ^= bit
                    live[node] = alive
                rounds[node] = rounds[node] ^ bit or alive
                node = child

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
