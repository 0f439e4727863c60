"""Frozen scalar reference implementations of the hot paths.

This module preserves, verbatim in behaviour, the pre-kernel-layer code of
the sampling/gathering stages: per-leaf Python loops in the octree builder,
per-level dict walks in OIS, per-centroid shell expansion in VEG, the
per-row inner loop of the brute-force ball query, and sqrt-based FPS.  Only
their neighbour orders were restated, each as one total order that no
sort's tie rule decides (``veg_scalar``, ``ballquery_scalar``,
``three_nearest_dense``).  The vectorized implementations in the library
proper carry an **exact equivalence contract** against these functions:
same selected indices, same neighbor rows, same operation counters, bit for
bit.

``benchmarks/run_all.py`` times each vectorized kernel against its scalar
reference and records the speedups in ``BENCH_kernels.json``;
``tests/test_kernels.py`` asserts the equivalence.  Nothing in the runtime
pipeline imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import OpCounters
from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import suggest_depth, voxel_indices
from repro.octree.builder import Octree, OctreeBuildStats
from repro.octree.node import OctreeNode


# ----------------------------------------------------------------------
# Scalar Morton / Hamming primitives (pre-kernel implementations)
# ----------------------------------------------------------------------
def scalar_hamming(a: int, b: int) -> int:
    """Popcount of ``a XOR b`` via Python string counting."""
    return int(bin(int(a) ^ int(b)).count("1"))


def scalar_hamming_array(a: np.ndarray, b: "np.ndarray | int") -> np.ndarray:
    """The pre-kernel shift-and-mask popcount loop over code arrays."""
    xor = np.asarray(np.bitwise_xor(a, b), dtype=np.uint64)
    count = np.zeros(xor.shape, dtype=np.int64)
    while np.any(xor):
        count += (xor & 1).astype(np.int64)
        xor >>= np.uint64(1)
    return count


def scalar_morton_encode_points(
    points: np.ndarray, box: AxisAlignedBox, depth: int
) -> np.ndarray:
    """The pre-kernel per-level interleaving loop."""
    indices = voxel_indices(points, box, depth)
    codes = np.zeros(indices.shape[0], dtype=np.int64)
    for level in range(depth - 1, -1, -1):
        codes = (codes << 1) | ((indices[:, 0] >> level) & 1)
        codes = (codes << 1) | ((indices[:, 1] >> level) & 1)
        codes = (codes << 1) | ((indices[:, 2] >> level) & 1)
    return codes


def scalar_morton_encode(ix: int, iy: int, iz: int, depth: int) -> int:
    code = 0
    for level in range(depth - 1, -1, -1):
        code = (code << 1) | ((ix >> level) & 1)
        code = (code << 1) | ((iy >> level) & 1)
        code = (code << 1) | ((iz >> level) & 1)
    return code


def scalar_morton_decode(code: int, depth: int) -> Tuple[int, int, int]:
    ix = iy = iz = 0
    for level in range(depth):
        shift = 3 * (depth - 1 - level)
        group = (code >> shift) & 0b111
        ix = (ix << 1) | ((group >> 2) & 1)
        iy = (iy << 1) | ((group >> 1) & 1)
        iz = (iz << 1) | (group & 1)
    return ix, iy, iz


def _prefix_at_level(code: int, depth: int, level: int) -> int:
    return code >> (3 * (depth - level))


# ----------------------------------------------------------------------
# Dict-based bucketing (pre-kernel VoxelGrid.build inner loop)
# ----------------------------------------------------------------------
def dict_bucketize(codes: np.ndarray) -> Dict[int, np.ndarray]:
    """Group indices by code into a dict, one ``np.unique`` slice at a time."""
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    buckets: Dict[int, np.ndarray] = {}
    if len(sorted_codes):
        unique_codes, starts = np.unique(sorted_codes, return_index=True)
        ends = np.append(starts[1:], len(sorted_codes))
        for code, start, end in zip(unique_codes, starts, ends):
            buckets[int(code)] = order[start:end]
    return buckets


# ----------------------------------------------------------------------
# Octree construction (pre-kernel per-leaf insertion walk)
# ----------------------------------------------------------------------
def _insert_leaf_scalar(
    root: OctreeNode, leaf_code: int, depth: int
) -> OctreeNode:
    node = root
    for level in range(1, depth + 1):
        prefix = _prefix_at_level(leaf_code, depth, level)
        octant = prefix & 0b111
        child = node.child(octant)
        if child is None:
            child = OctreeNode(
                code=prefix,
                level=level,
                box=node.box.octant(octant),
            )
            node.children[octant] = child
        node = child
    return node


def build_octree_scalar(
    cloud: PointCloud,
    depth: int,
    box: Optional[AxisAlignedBox] = None,
    padding: float = 1e-9,
) -> Octree:
    """The pre-kernel ``Octree.build``: one root-to-leaf walk per leaf."""
    if cloud.num_points == 0:
        raise ValueError("cannot build an octree over an empty cloud")
    if box is None:
        box = cloud.bounds().as_cube(padding=padding)

    codes = scalar_morton_encode_points(cloud.points, box, depth)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]

    stats = OctreeBuildStats(num_points=cloud.num_points, depth=depth)
    stats.host_memory_reads += cloud.num_points
    stats.host_memory_writes += cloud.num_points

    root = OctreeNode(code=0, level=0, box=box)
    leaf_lookup: Dict[int, OctreeNode] = {}

    unique_codes, starts = np.unique(sorted_codes, return_index=True)
    ends = np.append(starts[1:], len(sorted_codes))
    for leaf_code, start, end in zip(unique_codes, starts, ends):
        leaf_code = int(leaf_code)
        indices = order[start:end]
        node = _insert_leaf_scalar(root, leaf_code, depth)
        node.point_indices = indices
        leaf_lookup[leaf_code] = node
        stats.max_leaf_occupancy = max(stats.max_leaf_occupancy, len(indices))

    all_nodes = list(root.iter_nodes())
    stats.num_nodes = len(all_nodes)
    stats.num_leaves = len(leaf_lookup)
    stats.host_memory_writes += stats.num_nodes

    return Octree(
        depth=depth,
        box=box,
        cloud=cloud,
        leaf_codes=unique_codes.astype(np.int64),
        point_codes=codes,
        stats=stats,
        _root=root,
        _leaf_lookup=leaf_lookup,
    )


# ----------------------------------------------------------------------
# FPS (pre-kernel sqrt-per-iteration variant)
# ----------------------------------------------------------------------
def fps_scalar(
    cloud: PointCloud, num_samples: int, seed: int = 0
) -> Tuple[np.ndarray, float]:
    """Returns ``(selected_indices, nearest_distance_max)``.

    Equivalence with the squared-distance sampler holds except on argmax
    ties between two running minima less than one ulp apart (where sqrt
    collapses distinct doubles); see the note in ``sampling/fps.py``.
    """
    rng = np.random.default_rng(seed)
    points = cloud.points
    num_points = cloud.num_points

    selected = np.empty(num_samples, dtype=np.intp)
    selected[0] = rng.integers(num_points)
    nearest_dist = np.full(num_points, np.inf)

    for k in range(1, num_samples):
        last = points[selected[k - 1]]
        dist = np.sqrt(((points - last) ** 2).sum(axis=1))
        np.minimum(nearest_dist, dist, out=nearest_dist)
        nearest_dist[selected[k - 1]] = -np.inf
        selected[k] = int(np.argmax(nearest_dist))
    last = points[selected[-1]]
    np.minimum(
        nearest_dist,
        np.sqrt(((points - last) ** 2).sum(axis=1)),
        out=nearest_dist,
    )
    return selected, float(nearest_dist.max())


# ----------------------------------------------------------------------
# OIS (pre-kernel dict-walk descent)
# ----------------------------------------------------------------------
def ois_scalar(
    cloud: PointCloud,
    num_samples: int,
    octree_depth: Optional[int] = None,
    approximate: bool = False,
    seed: int = 0,
    octree: Optional[Octree] = None,
) -> Tuple[np.ndarray, OpCounters]:
    """The pre-kernel OIS sampling loop; returns ``(indices, counters)``.

    Matches ``OctreeIndexedSampler.sample`` without the
    ``count_build_at_scale`` rescaling (benchmarks compare raw counts).
    """
    from repro.octree.memory_layout import HostMemoryLayout

    rng = np.random.default_rng(seed)
    counters = OpCounters()

    depth = octree_depth or suggest_depth(cloud.num_points)
    if octree is None:
        octree = build_octree_scalar(cloud, depth=depth)
        counters.host_memory_reads += octree.stats.host_memory_reads
        counters.host_memory_writes += octree.stats.host_memory_writes
    else:
        depth = octree.depth
    layout = HostMemoryLayout.from_octree(octree)
    point_codes = octree.point_codes

    remaining: Dict[int, List[int]] = {}
    for leaf in octree.leaves_in_sfc_order():
        slots = sorted(
            layout.slot_of_original(int(i)) for i in leaf.point_indices
        )
        remaining[leaf.code] = [int(layout.slot_to_original[s]) for s in slots]
    remaining_count: Dict[Tuple[int, int], int] = {}
    picked_count: Dict[Tuple[int, int], int] = {}
    for leaf_code, points in remaining.items():
        for level in range(1, depth + 1):
            key = (level, _prefix_at_level(leaf_code, depth, level))
            remaining_count[key] = remaining_count.get(key, 0) + len(points)
            picked_count.setdefault(key, 0)

    def consume(original_index: int) -> None:
        leaf_code = int(point_codes[original_index])
        remaining[leaf_code].remove(original_index)
        for level in range(1, depth + 1):
            key = (level, _prefix_at_level(leaf_code, depth, level))
            remaining_count[key] -= 1
            picked_count[key] += 1

    def descend(seed_code: int) -> int:
        node = octree.root
        for level in range(1, depth + 1):
            seed_prefix = _prefix_at_level(seed_code, depth, level)
            best_child = None
            best_key = None
            candidates = node.occupied_octants()
            counters.node_visits += 1
            for octant in candidates:
                child = node.children[octant]
                if remaining_count.get((level, child.code), 0) <= 0:
                    continue
                counters.hamming_ops += 1
                counters.onchip_reads += 1
                counters.compare_ops += 1
                distance = scalar_hamming(child.code, seed_prefix)
                already_picked = picked_count.get((level, child.code), 0)
                key = (-already_picked, distance)
                if best_key is None or key > best_key:
                    best_key = key
                    best_child = child
            if best_child is None:
                raise RuntimeError(
                    "octree exhausted before collecting the requested samples"
                )
            node = best_child

        candidates = remaining[node.code]
        if approximate:
            choice = int(rng.integers(len(candidates)))
            return candidates[choice]
        if seed_code <= node.code:
            return candidates[-1]
        return candidates[0]

    picked: List[int] = []
    picked_codes_sum = np.zeros(3, dtype=np.float64)

    seed_index = int(rng.integers(cloud.num_points))
    picked.append(seed_index)
    consume(seed_index)
    picked_codes_sum += cloud.points[seed_index]
    counters.host_memory_reads += 1
    counters.onchip_writes += 1

    while len(picked) < num_samples:
        summary_point = picked_codes_sum / len(picked)
        summary_code = int(
            scalar_morton_encode_points(summary_point[None, :], octree.box, depth)[0]
        )
        next_index = descend(summary_code)
        picked.append(next_index)
        consume(next_index)
        picked_codes_sum += cloud.points[next_index]
        counters.host_memory_reads += 1
        counters.onchip_writes += 1
    return np.asarray(picked, dtype=np.intp), counters


# ----------------------------------------------------------------------
# OIS (array-ranked one-sample-at-a-time descent)
# ----------------------------------------------------------------------
def ois_sample_scalar(
    cloud: PointCloud,
    num_samples: int,
    octree_depth: Optional[int] = None,
    approximate: bool = False,
    seed: int = 0,
    octree: Optional[Octree] = None,
) -> Tuple[np.ndarray, OpCounters]:
    """The array-ranked OIS loop; returns ``(indices, counters)``.

    Frozen from ``OctreeIndexedSampler._run_sampling_loop`` as of PR 8:
    each pick runs one root-to-leaf walk over flat per-level code arrays
    (candidate ranking is one array-wide XOR+popcount per level), and the
    summary point is re-encoded before every descent.  "Scalar" here means
    one *sample* at a time.  The sampler in ``repro.sampling.ois`` walks
    the same table over per-level Python lists, ranking each level by the
    seed's 3-bit digit, and must match this function bit for bit: same
    indices, same counters, same RNG draw sequence in approximate mode.

    Matches ``OctreeIndexedSampler.sample`` without the
    ``count_build_at_scale`` rescaling (benchmarks compare raw counts).
    """
    from repro.kernels import encode_point_scalar, hamming_codes
    from repro.octree.memory_layout import HostMemoryLayout

    rng = np.random.default_rng(seed)
    counters = OpCounters()

    depth = octree_depth or suggest_depth(cloud.num_points)
    if octree is None:
        octree = Octree.build(cloud, depth=depth)
        counters.host_memory_reads += octree.stats.host_memory_reads
        counters.host_memory_writes += octree.stats.host_memory_writes
    else:
        depth = octree.depth
    layout = HostMemoryLayout.from_octree(octree)
    point_codes = octree.point_codes
    leaf_codes = octree.leaf_codes

    slot_to_original = layout.slot_to_original
    sorted_codes = point_codes[slot_to_original]
    leaf_starts = np.searchsorted(sorted_codes, leaf_codes, side="left")
    leaf_ends = np.searchsorted(sorted_codes, leaf_codes, side="right")
    remaining: List[List[int]] = [
        slot_to_original[start:end].tolist()
        for start, end in zip(leaf_starts, leaf_ends)
    ]
    leaf_counts = leaf_ends - leaf_starts

    level_codes: List[Optional[np.ndarray]] = [None] * (depth + 1)
    leaf_to_node: List[Optional[np.ndarray]] = [None] * (depth + 1)
    level_codes[depth] = leaf_codes
    leaf_to_node[depth] = np.arange(leaf_codes.shape[0], dtype=np.intp)
    for level in range(depth - 1, 0, -1):
        codes, parent_of = np.unique(
            level_codes[level + 1] >> 3, return_inverse=True
        )
        level_codes[level] = codes
        leaf_to_node[level] = parent_of[leaf_to_node[level + 1]]

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

    child_start: List[Optional[np.ndarray]] = [None] * (depth + 1)
    child_end: List[Optional[np.ndarray]] = [None] * (depth + 1)
    for level in range(1, depth):
        parents = level_codes[level + 1] >> 3
        child_start[level] = np.searchsorted(
            parents, level_codes[level], side="left"
        )
        child_end[level] = np.searchsorted(
            parents, level_codes[level], side="right"
        )

    leaf_of_point = np.searchsorted(leaf_codes, point_codes)

    def consume(original_index: int) -> None:
        leaf_index = int(leaf_of_point[original_index])
        remaining[leaf_index].remove(original_index)
        for level in range(1, depth + 1):
            node = leaf_to_node[level][leaf_index]
            remaining_count[level][node] -= 1
            picked_count[level][node] += 1

    box = octree.box
    box_minimum = box.minimum
    extent = np.where(box.size > 0, box.size, 1.0)
    key_floor = np.int64(np.iinfo(np.int64).min)

    def descend(seed_code: int) -> int:
        lo, hi = 0, level_codes[1].shape[0]
        node_index = 0
        for level in range(1, depth + 1):
            counters.node_visits += 1
            rem = remaining_count[level][lo:hi]
            eligible = rem > 0
            num_eligible = int(eligible.sum())
            if num_eligible == 0:
                raise RuntimeError(
                    "octree exhausted before collecting the requested"
                    " samples"
                )
            counters.hamming_ops += num_eligible
            counters.onchip_reads += num_eligible
            counters.compare_ops += num_eligible
            seed_prefix = seed_code >> (3 * (depth - level))
            key = hamming_codes(level_codes[level][lo:hi], seed_prefix) - (
                picked_count[level][lo:hi] << 6
            )
            key = np.where(eligible, key, key_floor)
            node_index = lo + int(np.argmax(key))
            if level < depth:
                lo = int(child_start[level][node_index])
                hi = int(child_end[level][node_index])

        candidates = remaining[node_index]
        if approximate:
            choice = int(rng.integers(len(candidates)))
            return candidates[choice]
        if seed_code <= int(leaf_codes[node_index]):
            return candidates[-1]
        return candidates[0]

    picked: List[int] = []
    picked_codes_sum = np.zeros(3, dtype=np.float64)

    seed_index = int(rng.integers(cloud.num_points))
    picked.append(seed_index)
    consume(seed_index)
    picked_codes_sum += cloud.points[seed_index]
    counters.host_memory_reads += 1
    counters.onchip_writes += 1

    while len(picked) < num_samples:
        summary_point = picked_codes_sum / len(picked)
        summary_code = encode_point_scalar(
            summary_point, box_minimum, extent, depth
        )
        next_index = descend(summary_code)
        picked.append(next_index)
        consume(next_index)
        picked_codes_sum += cloud.points[next_index]
        counters.host_memory_reads += 1
        counters.onchip_writes += 1
    return np.asarray(picked, dtype=np.intp), counters


# ----------------------------------------------------------------------
# Scalar voxel grid + VEG (pre-kernel per-centroid shell expansion)
# ----------------------------------------------------------------------
class ScalarGrid:
    """Dict-bucketed uniform voxel grid with the scalar shell enumeration."""

    def __init__(self, cloud: PointCloud, depth: int, box: Optional[AxisAlignedBox] = None):
        if box is None:
            box = cloud.bounds().as_cube()
        self.cloud = cloud
        self.depth = depth
        self.box = box
        self.codes = scalar_morton_encode_points(cloud.points, box, depth)
        self.buckets = dict_bucketize(self.codes)

    @property
    def resolution(self) -> int:
        return 1 << self.depth

    def cell_size(self) -> np.ndarray:
        return self.box.size / self.resolution

    def points_in_voxel(self, code: int) -> np.ndarray:
        return self.buckets.get(int(code), np.zeros(0, dtype=np.intp))

    def shell_codes(self, center_code: int, radius: int) -> List[int]:
        cx, cy, cz = scalar_morton_decode(center_code, self.depth)
        if radius == 0:
            return [center_code] if center_code in self.buckets else []
        resolution = self.resolution
        found: List[int] = []
        for dx in range(-radius, radius + 1):
            for dy in range(-radius, radius + 1):
                for dz in range(-radius, radius + 1):
                    if max(abs(dx), abs(dy), abs(dz)) != radius:
                        continue
                    ix, iy, iz = cx + dx, cy + dy, cz + dz
                    if not (
                        0 <= ix < resolution
                        and 0 <= iy < resolution
                        and 0 <= iz < resolution
                    ):
                        continue
                    code = scalar_morton_encode(ix, iy, iz, self.depth)
                    if code in self.buckets:
                        found.append(code)
        return found


def veg_scalar(
    cloud: PointCloud,
    centroid_indices: np.ndarray,
    neighbors: int,
    depth: Optional[int] = None,
    semi_approximate: bool = False,
    ball_radius: Optional[float] = None,
    seed: int = 0,
    box: Optional[AxisAlignedBox] = None,
) -> Tuple[np.ndarray, OpCounters, list]:
    """The per-centroid VEG shell walk; returns ``(rows, counters, stage_stats)``.

    ``stage_stats`` is a list of per-centroid tuples ``(expansions,
    inner_points, last_shell_points, sorted_candidates, voxels_visited)``.
    A row lists the inner-shell points in ascending index, then the last
    shell's picks ascending by ``(key, index)`` -- the squared distance, or
    in the semi-approximate mode one ``rng.random`` draw per last-shell
    point taken in index order -- then padding with its first entry (the
    centroid when empty).  Ball mode lists the in-ball points ascending by
    ``(sq_dist, index)``.  ``box`` is the grid's box (default: the cloud's
    cube hull), as in :meth:`repro.geometry.voxelgrid.VoxelGrid.build`.
    """
    centroid_indices = np.asarray(centroid_indices, dtype=np.intp)
    rng = np.random.default_rng(seed)
    depth = depth or suggest_depth(cloud.num_points)
    grid = ScalarGrid(cloud, depth, box)

    counters = OpCounters()
    stage_stats: list = []
    points = cloud.points
    max_radius = grid.resolution

    rows = np.empty((centroid_indices.shape[0], neighbors), dtype=np.intp)
    for row, centroid_index in enumerate(centroid_indices):
        expansions = inner_points = last_shell_points = 0
        sorted_candidates = voxels_visited = 0
        target = points[centroid_index]
        counters.onchip_reads += 1
        center_code = int(grid.codes[int(centroid_index)])
        counters.node_visits += 1

        if ball_radius is not None:
            radius = float(ball_radius)
            cell = float(grid.cell_size().min())
            shell_limit = min(
                grid.resolution, int(np.ceil(radius / max(cell, 1e-12))) + 1
            )
            candidates: List[np.ndarray] = []
            for shell in range(shell_limit + 1):
                shell_codes = grid.shell_codes(center_code, shell)
                voxels_visited += max(1, len(shell_codes))
                counters.node_visits += max(1, len(shell_codes))
                if shell_codes:
                    candidates.append(
                        np.concatenate(
                            [grid.points_in_voxel(c) for c in shell_codes]
                        )
                    )
            expansions = shell_limit
            pool = (
                np.concatenate(candidates)
                if candidates
                else np.zeros(0, dtype=np.intp)
            )
            dist = ((points[pool] - target) ** 2).sum(axis=1)
            counters.distance_computations += pool.shape[0]
            counters.compare_ops += pool.shape[0]
            counters.host_memory_reads += int(pool.shape[0])
            last_shell_points = int(pool.shape[0])
            sorted_candidates = int(pool.shape[0])

            inside = pool[dist <= radius**2]
            inside_dist = dist[dist <= radius**2]
            inside = inside[np.lexsort((inside, inside_dist))]
            if inside.shape[0] >= neighbors:
                selection = inside[:neighbors]
            else:
                fill_value = inside[0] if inside.shape[0] else centroid_index
                pad = np.full(
                    neighbors - inside.shape[0], fill_value, dtype=np.intp
                )
                selection = np.concatenate([inside, pad])
            counters.onchip_writes += neighbors
            rows[row] = selection
            stage_stats.append(
                (expansions, inner_points, last_shell_points,
                 sorted_candidates, voxels_visited)
            )
            continue

        gathered_count = 0
        shells: List[np.ndarray] = []
        radius = 0
        while gathered_count < neighbors and radius <= max_radius:
            shell_codes = grid.shell_codes(center_code, radius)
            voxels_visited += max(1, len(shell_codes))
            counters.node_visits += max(1, len(shell_codes))
            if shell_codes:
                shell_points = np.concatenate(
                    [grid.points_in_voxel(code) for code in shell_codes]
                )
            else:
                shell_points = np.zeros(0, dtype=np.intp)
            shells.append(shell_points)
            gathered_count += shell_points.shape[0]
            radius += 1
        expansions = max(0, len(shells) - 1)

        inner = np.sort(
            np.concatenate(shells[:-1]) if len(shells) > 1
            else np.zeros(0, dtype=np.intp)
        )
        last_shell = shells[-1] if shells else np.zeros(0, dtype=np.intp)
        inner_points = int(inner.shape[0])
        last_shell_points = int(last_shell.shape[0])
        counters.host_memory_reads += int(inner.shape[0])

        still_needed = neighbors - inner.shape[0]
        if semi_approximate:
            sorted_candidates = 0
            last_shell = np.sort(last_shell)
            draws = rng.random(last_shell.shape[0])
            tail = last_shell[np.lexsort((last_shell, draws))[:still_needed]]
            counters.host_memory_reads += int(tail.shape[0])
        else:
            dist = ((points[last_shell] - target) ** 2).sum(axis=1)
            counters.distance_computations += last_shell.shape[0]
            counters.compare_ops += last_shell.shape[0]
            counters.host_memory_reads += int(last_shell.shape[0])
            sorted_candidates = int(last_shell.shape[0])
            tail = last_shell[np.lexsort((last_shell, dist))[:still_needed]]
        selection = np.concatenate([inner, tail])
        if selection.shape[0] < neighbors:
            pad = np.full(
                neighbors - selection.shape[0],
                selection[0] if selection.shape[0] else centroid_index,
                dtype=np.intp,
            )
            selection = np.concatenate([selection, pad])

        counters.onchip_writes += neighbors
        rows[row] = selection[:neighbors]
        stage_stats.append(
            (expansions, inner_points, last_shell_points,
             sorted_candidates, voxels_visited)
        )

    return rows, counters, stage_stats


# ----------------------------------------------------------------------
# Same-level neighbor search (pre-kernel per-code triple loops)
# ----------------------------------------------------------------------
def neighbor_codes_at_radius_scalar(
    code: int,
    depth: int,
    radius: int,
    include_diagonal: bool = True,
) -> List[int]:
    """The pre-kernel Chebyshev-shell enumeration: one Python triple loop."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return [code]
    cx, cy, cz = scalar_morton_decode(code, depth)
    resolution = 1 << depth
    result: List[int] = []
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            for dz in range(-radius, radius + 1):
                cheb = max(abs(dx), abs(dy), abs(dz))
                if cheb != radius:
                    continue
                if not include_diagonal and abs(dx) + abs(dy) + abs(dz) != radius:
                    continue
                ix, iy, iz = cx + dx, cy + dy, cz + dz
                if not (
                    0 <= ix < resolution
                    and 0 <= iy < resolution
                    and 0 <= iz < resolution
                ):
                    continue
                result.append(scalar_morton_encode(ix, iy, iz, depth))
    return sorted(result)


def codes_within_radius_scalar(code: int, depth: int, radius: int) -> List[int]:
    """The pre-kernel cube enumeration: shell loops plus a ``set`` dedup."""
    result: List[int] = []
    for shell in range(radius + 1):
        result.extend(neighbor_codes_at_radius_scalar(code, depth, shell))
    return sorted(set(result))


def chebyshev_distance_scalar(code_a: int, code_b: int, depth: int) -> int:
    """The pre-kernel per-pair decode + max-abs-difference."""
    ax, ay, az = scalar_morton_decode(code_a, depth)
    bx, by, bz = scalar_morton_decode(code_b, depth)
    return max(abs(ax - bx), abs(ay - by), abs(az - bz))


def filter_occupied_scalar(codes, occupied) -> List[int]:
    """The pre-kernel membership filter: a per-call Python ``set``."""
    occupied_set = set(int(c) for c in occupied)
    return [int(c) for c in codes if int(c) in occupied_set]


# ----------------------------------------------------------------------
# Octree-Table construction (pre-flat recursive pointer-tree emit)
# ----------------------------------------------------------------------
def octree_table_scalar(octree: Octree):
    """The pre-flat Octree-Table construction: recursive node-by-node emit.

    Walks the pointer tree (forcing its lazy materialisation when needed),
    collecting one row per node in pre-order with dict child links, then
    packs the rows into the array-backed table type for comparison.
    """
    from repro.octree.linear import OctreeTable

    leaf_ranges: Dict[int, Tuple[int, int]] = {}
    cursor = 0
    for leaf in octree.leaves_in_sfc_order():
        start = cursor
        cursor += leaf.num_points
        leaf_ranges[leaf.code] = (start, cursor)

    codes: List[int] = []
    levels: List[int] = []
    leaf_flags: List[bool] = []
    children: List[Dict[int, int]] = []
    addr: List[Tuple[int, int]] = []

    def emit(node: OctreeNode) -> int:
        row = len(codes)
        codes.append(node.code)
        levels.append(node.level)
        leaf_flags.append(node.is_leaf)
        children.append({})
        addr.append(
            leaf_ranges.get(node.code, (0, 0)) if node.is_leaf else (0, 0)
        )
        for octant in node.occupied_octants():
            children[row][octant] = emit(node.children[octant])
        return row

    root_index = emit(octree.root)
    return OctreeTable._from_rows(
        depth=octree.depth,
        codes=codes,
        levels=levels,
        leaf_flags=leaf_flags,
        children=children,
        addr=addr,
        root_index=root_index,
    )


def leaf_slot_range_scan(octree: Octree, leaf_code: int) -> Tuple[int, int]:
    """The pre-searchsorted ``HostMemoryLayout.leaf_slot_range``: O(leaves).

    Walks the materialised leaves in SFC order accumulating point counts
    until the requested code is found.
    """
    cursor = 0
    for leaf in octree.leaves_in_sfc_order():
        if leaf.code == leaf_code:
            return cursor, cursor + leaf.num_points
        cursor += leaf.num_points
    raise KeyError(f"no occupied leaf with code {leaf_code}")


# ----------------------------------------------------------------------
# Voxel-grid down-sampling (pre-kernel per-voxel representative loop)
# ----------------------------------------------------------------------
def voxelgrid_sample_scalar(cloud: PointCloud, num_samples: int, depth: int):
    """The pre-kernel per-voxel representative picking; returns indices.

    One ``points_in_voxel`` call (and Python bucket indexing) per visited
    voxel, plus the dict-histogram fill loop for under-full requests.
    """
    from repro.geometry.voxelgrid import VoxelGrid

    grid = VoxelGrid.build(cloud, depth)
    selected: List[int] = []
    codes = grid.occupied_codes()
    take = min(num_samples, len(codes))
    positions = np.linspace(0, len(codes) - 1, take).round().astype(int)
    for code in codes[np.unique(positions)]:
        if len(selected) >= num_samples:
            break
        bucket = grid.points_in_voxel(int(code))
        selected.append(int(bucket[0]))
    if len(selected) < num_samples:
        # Fill the remainder from the most populated voxels.
        histogram = sorted(
            grid.occupancy_histogram().items(),
            key=lambda item: item[1],
            reverse=True,
        )
        taken = set(selected)
        for code, _count in histogram:
            for idx in grid.points_in_voxel(code):
                if len(selected) >= num_samples:
                    break
                if int(idx) not in taken:
                    selected.append(int(idx))
                    taken.add(int(idx))
            if len(selected) >= num_samples:
                break
    return np.asarray(selected[:num_samples], dtype=np.intp)


# ----------------------------------------------------------------------
# Brute-force ball query (pre-kernel per-row inner loop)
# ----------------------------------------------------------------------
def ballquery_scalar(
    cloud: PointCloud,
    centroid_indices: np.ndarray,
    neighbors: int,
    radius: float,
) -> Tuple[np.ndarray, int, int]:
    """Returns ``(rows, groups_truncated, groups_padded)``.

    Each row lists the in-radius points ascending by ``(sq_dist, index)``
    (a stable sort), padded with the nearest point.
    """
    centroid_indices = np.asarray(centroid_indices, dtype=np.intp)
    points = cloud.points
    radius_sq = radius**2

    rows = np.empty((centroid_indices.shape[0], neighbors), dtype=np.intp)
    truncated = 0
    padded = 0
    chunk = 256
    for start in range(0, centroid_indices.shape[0], chunk):
        block_idx = centroid_indices[start : start + chunk]
        block = points[block_idx]
        diff = block[:, None, :] - points[None, :, :]
        dist = (diff**2).sum(axis=-1)
        order = np.argsort(dist, axis=1, kind="stable")
        sorted_dist = np.take_along_axis(dist, order, axis=1)
        for r in range(block.shape[0]):
            inside = order[r][sorted_dist[r] <= radius_sq]
            if inside.shape[0] >= neighbors:
                if inside.shape[0] > neighbors:
                    truncated += 1
                rows[start + r] = inside[:neighbors]
            else:
                padded += 1
                fill = np.full(neighbors, order[r][0], dtype=np.intp)
                fill[: inside.shape[0]] = inside
                rows[start + r] = fill
    return rows, truncated, padded


# ----------------------------------------------------------------------
# Materialised-operand formulations (pre-streaming distance / stencil code)
# ----------------------------------------------------------------------
def pairwise_sq_dists_dense(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``(M, N)`` squared distances through the ``(M, N, 3)`` difference block.

    The streamed :func:`repro.kernels.pairwise_sq_dists` must equal this bit
    for bit; that holds because ``sum(axis=-1)`` over three squares
    associates as ``(x + y) + z``.
    """
    diff = queries[:, None, :] - points[None, :, :]
    return (diff**2).sum(axis=-1)


def three_nearest_dense(
    dense: np.ndarray, coarse: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Feature propagation's neighbour selection over the whole matrix.

    Returns ``(indices, sq_dists)`` of shape ``(N, min(3, M))``, each row
    ascending by ``(sq_dist, index)``: the first ``k`` columns of a stable
    sort, so exact ties go to the lower coarse index.
    """
    sq_dist = pairwise_sq_dists_dense(dense, coarse)
    k = min(3, coarse.shape[0])
    nearest = np.argsort(sq_dist, axis=1, kind="stable")[:, :k]
    return nearest, np.take_along_axis(sq_dist, nearest, axis=1)


def stencil_codes_dense(
    cells: np.ndarray, offsets: np.ndarray, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Same-level m-codes of ``cells + offsets``, encoding all ``M * S`` cells."""
    from repro.kernels import encode_cells

    resolution = 1 << depth
    coords = np.asarray(cells, dtype=np.int64)[:, None, :] + offsets[None, :, :]
    in_bounds = np.logical_and(coords >= 0, coords < resolution).all(axis=-1)
    clipped = np.clip(coords, 0, resolution - 1)
    codes = encode_cells(clipped.reshape(-1, 3), depth).reshape(in_bounds.shape)
    return codes, in_bounds
