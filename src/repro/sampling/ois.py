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

The sampling loop is *wavefront* based: the summary point only moves by
``O(1/len(picked))`` per pick, so its m-code is constant across long runs
of consecutive picks.  Whenever the code has been stable, the sampler
speculates a whole wavefront of W picks under the frozen code -- one
level-synchronous multi-descent whose per-level ranking is the closed-form
greedy winner sequence of :func:`repro.kernels.wavefront_level_winners` --
then validates the run against the true running-mean codes and commits the
accepted prefix.  Picks, per-pick counters, and SFC tie-breaks are bit
identical to the retained one-sample-at-a-time reference
(:func:`repro.kernels.reference.ois_sample_scalar`) for every wavefront
width, including the degenerate ``wavefront=1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import OpCounters
from repro.geometry.pointcloud import PointCloud
from repro.kernels import (
    encode_point_scalar,
    hamming_codes,
    wavefront_level_winners,
    wavefront_singleton_winners,
)
from repro.geometry.voxelgrid import suggest_depth
from repro.octree.builder import Octree
from repro.octree.memory_layout import HostMemoryLayout
from repro.sampling.base import Sampler, SamplingResult

#: Default cap on the speculative wavefront width.  Wide wavefronts only
#: form after the summary code has proven stable (the width grows per
#: fully-accepted wavefront and collapses on truncation), so the cap
#: mostly bounds the worst-case wasted simulation of one truncation.
DEFAULT_WAVEFRONT = 1024

#: Width of the first wavefront of a stable run and the growth factor per
#: fully-accepted wavefront.  A wavefront has a fixed per-level array cost
#: regardless of width, so ramping quickly matters more than the wasted
#: lanes of the final (truncated) wavefront of a run.
_INITIAL_WIDTH = 16
_GROWTH = 4

#: Consecutive unchanged summary codes required before leaving the
#: one-sample-at-a-time path.  Early in the loop the mean moves across
#: voxel boundaries almost every pick and speculation is pure overhead;
#: two stable codes in a row is the cheapest evidence of a run.
_STABLE_RUN_THRESHOLD = 2


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
    wavefront:
        Cap on the speculative wavefront width (``None`` =
        :data:`DEFAULT_WAVEFRONT`).  Purely a performance knob: results and
        counters are bit-identical for every value, and ``wavefront=1``
        degenerates to the one-sample-at-a-time walk of
        :func:`repro.kernels.reference.ois_sample_scalar`.
    """

    name = "ois"

    def __init__(
        self,
        octree_depth: Optional[int] = None,
        num_sampling_modules: int = 8,
        approximate: bool = False,
        seed: int = 0,
        count_build_at_scale: Optional[int] = None,
        wavefront: Optional[int] = None,
    ):
        if wavefront is not None and wavefront < 1:
            raise ValueError("wavefront must be >= 1")
        self._octree_depth = octree_depth
        self._num_sampling_modules = num_sampling_modules
        self._approximate = approximate
        self._seed = seed
        self._count_build_at_scale = count_build_at_scale
        self._wavefront = wavefront if wavefront is not None else DEFAULT_WAVEFRONT

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
        layout = HostMemoryLayout.from_octree(octree)

        picked, wavefront = self._run_sampling_loop(
            octree, layout, num_samples, rng, counters
        )
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
                "wavefront": wavefront,
            },
        )

    # ------------------------------------------------------------------
    def _run_sampling_loop(
        self,
        octree: Octree,
        layout: HostMemoryLayout,
        num_samples: int,
        rng: np.random.Generator,
        counters: OpCounters,
    ) -> Tuple[List[int], Dict[str, int]]:
        """Wavefront Octree-Table walk over flat per-level node arrays.

        Two retained references bound this loop: the dict-walk
        :func:`repro.kernels.reference.ois_scalar` (pre-kernel) and the
        one-sample-at-a-time :func:`repro.kernels.reference.ois_sample_scalar`
        (the immediate predecessor, whose per-pick descent ranks each level
        with one array-wide XOR+popcount).  This implementation keeps the
        same flat table but fuses *runs* of picks: while the summary code
        is unchanged, the serial pick/consume recurrence has a closed form
        per level (:func:`repro.kernels.wavefront_level_winners`), so a
        whole wavefront of W speculative picks descends level-synchronously
        at a fixed number of array ops per level.  The run is then
        validated against the true running-mean codes -- pick ``j`` of the
        wavefront is only legitimate if the code after picks ``0..j-1``
        still equals the frozen one -- and the accepted prefix is
        committed; nothing of a rejected suffix (counters, RNG draws,
        table state) ever materialises.  Selected indices and all counters
        are bit-identical to both references for every wavefront width.

        Returns the picked indices and how the picks after the seed were
        made: ``scalar_descents`` one at a time, ``committed_lanes`` out of
        ``speculated_lanes`` over ``launches`` wavefronts (the commit rate
        is what a width policy would tune).
        """
        depth = octree.depth
        cloud = octree.cloud
        point_codes = octree.point_codes
        leaf_codes = octree.leaf_codes

        # Remaining (unpicked) points per leaf, kept in SFC slot order so the
        # "farthest point by SFC traversal" rule is an end-of-list access.
        # slot_to_original is already leaf-major in ascending-code order, so
        # each leaf's remaining list is one contiguous slice of it.
        slot_to_original = layout.slot_to_original
        slot_bounds = octree.leaf_slot_bounds()
        leaf_starts = slot_bounds[:-1]
        leaf_ends = slot_bounds[1:]
        leaf_counts = leaf_ends - leaf_starts

        if self._approximate:
            # Approximate mode draws random in-leaf offsets, so buckets are
            # Python lists supporting arbitrary removal.  They materialise
            # lazily: a run touches at most one leaf per pick, so most of
            # the tens of thousands of leaves of a paper-scale frame never
            # need their slice converted to a list at all.
            slot_list = slot_to_original.tolist()
            bucket_starts = leaf_starts.tolist()
            bucket_ends = leaf_ends.tolist()
            remaining: List[Optional[List[int]]] = [None] * leaf_codes.shape[0]

            def bucket_of(leaf: int) -> List[int]:
                bucket = remaining[leaf]
                if bucket is None:
                    bucket = slot_list[bucket_starts[leaf] : bucket_ends[leaf]]
                    remaining[leaf] = bucket
                return bucket

        else:
            # Exact mode only ever takes points off a bucket's SFC-extreme
            # ends, so every bucket is a shrinking [win_lo, win_hi) window
            # into the slot permutation -- no per-leaf lists, and the whole
            # wavefront leaf stage is a vector gather.  The one exception is
            # the random seed pick; its hole is closed physically, once.
            slot_arr = slot_to_original.copy()
            win_lo = np.array(leaf_starts, dtype=np.intp)
            win_hi = np.array(leaf_ends, dtype=np.intp)

        # Flat Octree-Table: per level, the sorted unique prefixes plus
        # remaining counts (so exhausted subtrees are skipped during the
        # descent) and picked counts (so the walk prefers subtrees that have
        # not yet contributed a sample.  Genuine FPS naturally avoids regions
        # that already contain picked points because their distance-to-S
        # collapses; the Octree walk reproduces that with one "picked"
        # counter per node, which in hardware is a small per-entry tag in
        # the Octree-Table.)
        level_codes: List[Optional[np.ndarray]] = [None] * (depth + 1)
        leaf_to_node: List[Optional[np.ndarray]] = [None] * (depth + 1)
        parent_index: List[Optional[np.ndarray]] = [None] * (depth + 1)
        level_codes[depth] = leaf_codes
        leaf_to_node[depth] = np.arange(leaf_codes.shape[0], dtype=np.intp)
        for level in range(depth - 1, 0, -1):
            codes, parent_of = np.unique(
                level_codes[level + 1] >> 3, return_inverse=True
            )
            level_codes[level] = codes
            leaf_to_node[level] = parent_of[leaf_to_node[level + 1]]
            parent_index[level + 1] = parent_of

        remaining_count: List[Optional[np.ndarray]] = [None] * (depth + 1)
        picked_count: List[Optional[np.ndarray]] = [None] * (depth + 1)
        for level in range(1, depth + 1):
            remaining_count[level] = np.bincount(
                leaf_to_node[level],
                weights=leaf_counts,
                minlength=level_codes[level].shape[0],
            ).astype(np.int64)
            picked_count[level] = np.zeros(
                level_codes[level].shape[0], dtype=np.int64
            )

        # Children of node i at level L are the contiguous slice
        # [child_start[L][i], child_end[L][i]) of level L+1 (both code
        # arrays are sorted, and a child's parent prefix is its code >> 3).
        child_start: List[Optional[np.ndarray]] = [None] * (depth + 1)
        child_end: List[Optional[np.ndarray]] = [None] * (depth + 1)
        for level in range(1, depth):
            # Children are sorted by code, so each node's slice is the
            # run of its own index in the child->parent map built above.
            counts = np.bincount(
                parent_index[level + 1],
                minlength=level_codes[level].shape[0],
            )
            child_end[level] = np.cumsum(counts)
            child_start[level] = child_end[level] - counts

        # Invert the leaf-major slot permutation instead of binary-searching
        # every point's code against the leaf array.
        leaf_of_slot = np.repeat(
            np.arange(leaf_codes.shape[0], dtype=np.intp), leaf_counts
        )
        leaf_of_point = leaf_of_slot[layout.original_to_slot]

        def consume(original_index: int) -> None:
            nonlocal slot_arr
            leaf_index = int(leaf_of_point[original_index])
            if self._approximate:
                bucket_of(leaf_index).remove(original_index)
            else:
                lo = int(win_lo[leaf_index])
                hi = int(win_hi[leaf_index])
                if int(slot_arr[lo]) == original_index:
                    win_lo[leaf_index] = lo + 1
                elif int(slot_arr[hi - 1]) == original_index:
                    win_hi[leaf_index] = hi - 1
                else:
                    # The random seed pick is the only mid-window removal:
                    # close the hole physically so windows stay contiguous.
                    pos = lo + int(
                        np.flatnonzero(slot_arr[lo:hi] == original_index)[0]
                    )
                    slot_arr = np.delete(slot_arr, pos)
                    win_lo[win_lo > pos] -= 1
                    win_hi[win_hi > pos] -= 1
            for level in range(1, depth + 1):
                node = leaf_to_node[level][leaf_index]
                remaining_count[level][node] -= 1
                picked_count[level][node] += 1

        box = octree.box
        box_minimum = box.minimum
        extent = np.where(box.size > 0, box.size, 1.0)
        resolution = float(1 << depth)
        top_cell = float((1 << depth) - 1)

        # Plain-int copies of the per-level codes for the one-sample walk:
        # a node's slice holds at most eight children, where Python ints
        # beat array dispatch by an order of magnitude.
        level_codes_list: List[Optional[List[int]]] = [None] * (depth + 1)
        for level in range(1, depth + 1):
            level_codes_list[level] = level_codes[level].tolist()

        def descend(seed_code: int) -> int:
            """Walk the table picking the farthest non-exhausted voxel per
            level: among the least-picked children the largest Hamming
            distance from the seed voxel wins, earliest SFC position
            breaking ties.  Pure-int inner loop over the <= 8 children of a
            slice; keys, tie-breaks, and counters are exactly those of the
            array-ranked reference walk
            (:func:`repro.kernels.reference.ois_sample_scalar`)."""
            lo, hi = 0, level_codes[1].shape[0]
            node_index = 0
            for level in range(1, depth + 1):
                counters.node_visits += 1
                rem = remaining_count[level][lo:hi].tolist()
                pick = picked_count[level][lo:hi].tolist()
                codes = level_codes_list[level]
                seed_prefix = seed_code >> (3 * (depth - level))
                num_eligible = 0
                best_key = None
                # (-picked, hamming) packed into one int key (hamming < 64
                # = one 6-bit digit); strict > keeps the first maximum,
                # matching the argmax SFC-order tie-break.
                for offset in range(hi - lo):
                    if rem[offset] <= 0:
                        continue
                    num_eligible += 1
                    key = (codes[lo + offset] ^ seed_prefix).bit_count() - (
                        pick[offset] << 6
                    )
                    if best_key is None or key > best_key:
                        best_key = key
                        node_index = lo + offset
                if num_eligible == 0:
                    raise RuntimeError(
                        "octree exhausted before collecting the requested"
                        " samples"
                    )
                counters.hamming_ops += num_eligible
                counters.onchip_reads += num_eligible
                counters.compare_ops += num_eligible
                if level < depth:
                    lo = int(child_start[level][node_index])
                    hi = int(child_end[level][node_index])

            if self._approximate:
                candidates = bucket_of(node_index)
                choice = int(rng.integers(len(candidates)))
                return candidates[choice]
            # Exact rule: the SFC-extreme point of the leaf, i.e. the end of
            # the intra-leaf SFC order farthest from the seed side of the
            # curve.
            if seed_code <= int(leaf_codes[node_index]):
                return int(slot_arr[int(win_hi[node_index]) - 1])
            return int(slot_arr[int(win_lo[node_index])])

        def descend_wavefront(
            seed_code: int, rounds: int
        ) -> Tuple[np.ndarray, np.ndarray]:
            """Simulate the next ``rounds`` serial picks under a frozen
            summary code in one level-synchronous pass.

            Returns ``(paths, eligible)``: ``paths[j, level]`` is the node
            pick ``j`` routes through at ``level`` and ``eligible[j,
            level]`` the eligible-children count it saw there (the
            per-level ``hamming_ops`` charge).  Pure: committed table state
            is only read, so a rejected speculation leaves no trace.
            """
            paths = np.empty((rounds, depth + 1), dtype=np.intp)
            eligible = np.empty((rounds, depth + 1), dtype=np.int64)
            lane_ids = np.arange(rounds, dtype=np.intp)
            group_lo = np.zeros(1, dtype=np.intp)
            group_hi = np.array([level_codes[1].shape[0]], dtype=np.intp)
            group_rounds = np.array([rounds], dtype=np.int64)
            tail = False
            for level in range(1, depth + 1):
                seed_prefix = seed_code >> (3 * (depth - level))
                if tail or group_lo.shape[0] == rounds:
                    # Every lane is alone in its subtree (and stays alone:
                    # disjoint subtrees never re-merge below), so each group
                    # ranks exactly one pick -- per-segment argmax with no
                    # regroup needed, the dominant regime of deep levels.
                    tail = True
                    winners, elig = wavefront_singleton_winners(
                        level_codes[level],
                        picked_count[level],
                        remaining_count[level],
                        seed_prefix,
                        group_lo,
                        group_hi,
                    )
                    paths[lane_ids, level] = winners
                    eligible[lane_ids, level] = elig
                    if level < depth:
                        group_lo = child_start[level][winners]
                        group_hi = child_end[level][winners]
                    continue
                winners, elig = wavefront_level_winners(
                    level_codes[level],
                    picked_count[level],
                    remaining_count[level],
                    seed_prefix,
                    group_lo,
                    group_hi,
                    group_rounds,
                )
                paths[lane_ids, level] = winners
                eligible[lane_ids, level] = elig
                if level < depth:
                    # Split the wavefront along the winners: picks routed
                    # into the same subtree keep their serial order
                    # (ascending lane id); picks in different subtrees no
                    # longer interact below this level.
                    order = np.lexsort((lane_ids, winners))
                    lane_ids = lane_ids[order]
                    sorted_winners = winners[order]
                    first = np.empty(sorted_winners.shape[0], dtype=bool)
                    first[0] = True
                    np.not_equal(
                        sorted_winners[1:], sorted_winners[:-1], out=first[1:]
                    )
                    nodes = sorted_winners[first]
                    starts = np.flatnonzero(first)
                    group_lo = child_start[level][nodes]
                    group_hi = child_end[level][nodes]
                    group_rounds = np.diff(
                        np.append(starts, sorted_winners.shape[0])
                    )
            return paths, eligible

        def validated_prefix(candidates: List[int]) -> Tuple[int, np.ndarray]:
            """How much of a speculative run is legitimate.

            Pick ``j`` of the run is only what the serial loop would have
            picked if the summary code after picks ``0..j-1`` still equals
            the frozen one.  The running coordinate sums come out of one
            ``cumsum`` (sequential accumulation, so IEEE-identical to the
            serial ``+=``), every mean maps to its voxel cell with the same
            correctly-rounded elementwise ops as ``encode_point_scalar``,
            and code equality is checked as cell equality (the m-code
            interleaving is injective on clipped cells) -- row 0 is the
            current mean itself, i.e. the frozen summary cell.  Returns
            ``(accepted, sums)`` with ``sums[j + 1]`` the coordinate sum
            after pick ``j``.
            """
            rounds = len(candidates)
            stacked = np.vstack(
                (
                    picked_codes_sum[None, :],
                    cloud.points[np.asarray(candidates, dtype=np.intp)],
                )
            )
            sums = np.cumsum(stacked, axis=0)
            counts = np.arange(
                len(picked), len(picked) + rounds + 1, dtype=np.float64
            )
            relative = (sums / counts[:, None] - box_minimum) / extent
            cells = np.clip(np.floor(relative * resolution), 0.0, top_cell)
            bad = (cells[1:rounds] != cells[0]).any(axis=1)
            mismatch = np.flatnonzero(bad)
            accepted = rounds if mismatch.size == 0 else int(mismatch[0]) + 1
            return accepted, sums

        def run_wavefront_exact(seed_code: int, rounds: int) -> int:
            nonlocal picked_codes_sum
            paths, eligible = descend_wavefront(seed_code, rounds)
            # Speculative leaf stage: round r of a leaf takes the r-th
            # entry from the seed-farthest end of the leaf's SFC order.
            # ``occ`` is each lane's round index within its leaf (lanes of
            # a leaf are in serial order, so occurrence order in the lane
            # array is round order) and the window arrays turn the pick
            # into one gather from the slot permutation.
            leaf_lanes = paths[:, depth]
            high = leaf_codes[leaf_lanes] >= seed_code
            order = np.argsort(leaf_lanes, kind="stable")
            sorted_leaves = leaf_lanes[order]
            first = np.empty(rounds, dtype=bool)
            first[0] = True
            np.not_equal(sorted_leaves[1:], sorted_leaves[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            seg_of = np.cumsum(first) - 1
            occ = np.empty(rounds, dtype=np.intp)
            occ[order] = np.arange(rounds, dtype=np.intp) - starts[seg_of]
            slot_idx = np.where(
                high,
                win_hi[leaf_lanes] - 1 - occ,
                win_lo[leaf_lanes] + occ,
            )
            candidates = slot_arr[slot_idx]
            accepted, sums = validated_prefix(candidates)

            # Commit the legitimate prefix.
            picked.extend(candidates[:accepted].tolist())
            picked_codes_sum = sums[accepted].copy()
            for level in range(1, depth + 1):
                nodes = paths[:accepted, level]
                np.add.at(remaining_count[level], nodes, -1)
                np.add.at(picked_count[level], nodes, 1)
            acc_leaves = leaf_lanes[:accepted]
            acc_high = high[:accepted]
            np.add.at(win_hi, acc_leaves[acc_high], -1)
            np.add.at(win_lo, acc_leaves[~acc_high], 1)
            counters.host_memory_reads += accepted
            counters.onchip_writes += accepted
            counters.node_visits += accepted * depth
            work = int(eligible[:accepted, 1:].sum())
            counters.hamming_ops += work
            counters.onchip_reads += work
            counters.compare_ops += work
            return accepted

        def run_wavefront_approx(seed_code: int, rounds: int) -> int:
            """Approximate mode commits lane by lane: each accepted pick
            draws from the leaf RNG exactly like the serial loop (and a
            rejected lane is detected *before* its draw, so the RNG stream
            never diverges), but the descents themselves are still fused.
            """
            nonlocal picked_codes_sum
            paths, eligible = descend_wavefront(seed_code, rounds)
            accepted = 0
            for lane in range(rounds):
                if lane > 0:
                    summary_point = picked_codes_sum / len(picked)
                    code = encode_point_scalar(
                        summary_point, box_minimum, extent, depth
                    )
                    if code != seed_code:
                        break
                bucket = bucket_of(int(paths[lane, depth]))
                choice = int(rng.integers(len(bucket)))
                original = bucket[choice]
                picked.append(original)
                consume(original)
                picked_codes_sum += cloud.points[original]
                counters.host_memory_reads += 1
                counters.onchip_writes += 1
                counters.node_visits += depth
                work = int(eligible[lane, 1:].sum())
                counters.hamming_ops += work
                counters.onchip_reads += work
                counters.compare_ops += work
                accepted = lane + 1
            return accepted

        picked: List[int] = []
        picked_codes_sum = np.zeros(3, dtype=np.float64)

        # Seed point: random pick, written into the first SPT entry.
        seed_index = int(rng.integers(cloud.num_points))
        picked.append(seed_index)
        consume(seed_index)
        picked_codes_sum += cloud.points[seed_index]
        counters.host_memory_reads += 1
        counters.onchip_writes += 1

        # Adaptive wavefront: speculate only on demonstrated stability.
        # Early on the mean crosses voxel boundaries almost every pick, so
        # the loop stays on the one-sample-at-a-time walk until the summary
        # code has repeated; each fully-accepted wavefront then grows the
        # width, and any truncation (or loss of stability) collapses it.
        initial_width = min(_INITIAL_WIDTH, self._wavefront)
        width = initial_width
        stable_run = 0
        previous_code: Optional[int] = None
        stats = dict.fromkeys(
            ("launches", "speculated_lanes", "committed_lanes", "scalar_descents"), 0
        )
        while len(picked) < num_samples:
            # Virtual summary point ||S||_2 of the picked set (Section V-B).
            summary_point = picked_codes_sum / len(picked)
            summary_code = encode_point_scalar(
                summary_point, box_minimum, extent, depth
            )
            stable_run = stable_run + 1 if summary_code == previous_code else 0
            previous_code = summary_code
            budget = num_samples - len(picked)
            if (
                self._wavefront == 1
                or budget == 1
                or stable_run < _STABLE_RUN_THRESHOLD
            ):
                next_index = descend(summary_code)
                picked.append(next_index)
                consume(next_index)
                picked_codes_sum += cloud.points[next_index]
                counters.host_memory_reads += 1
                counters.onchip_writes += 1
                stats["scalar_descents"] += 1
                width = initial_width
                continue
            rounds = min(width, budget)
            if self._approximate:
                accepted = run_wavefront_approx(summary_code, rounds)
            else:
                accepted = run_wavefront_exact(summary_code, rounds)
            stats["launches"] += 1
            stats["speculated_lanes"] += rounds
            stats["committed_lanes"] += accepted
            if accepted == rounds:
                width = min(rounds * _GROWTH, self._wavefront)
        return picked, stats
