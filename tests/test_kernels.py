"""Property tests for the vectorized kernel layer (repro.kernels).

Every vectorized kernel carries an exact-equivalence contract against the
frozen scalar implementations in :mod:`repro.kernels.reference`: identical
codes, indices, neighbor rows, and operation counters, bit for bit.  These
tests enforce the contract on randomised inputs; ``benchmarks/run_all.py``
enforces it again at benchmark scale and records the speedups.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datastructuring.ballquery import BallQueryGatherer
from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.knn import BruteForceKNN
from repro.datastructuring.veg import VoxelExpandedGatherer
from repro.datasets.synthetic import lidar_scene, sample_cad_shape
from repro.geometry.morton import morton_encode_points
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import VoxelGrid
from repro.kernels import (
    DEFAULT_CHUNK_BUDGET_BYTES,
    bucketize_codes,
    distance_chunk_rows,
    encode_cells,
    encode_point_scalar,
    gather_ragged,
    grouped_topk,
    hamming_codes,
    pairwise_sq_dists,
    point_encoder,
    popcount64,
    rows_per_chunk,
    sort_codes,
    spread_axis,
    three_nearest,
)
from repro.kernels import distance as distance_kernels
from repro.kernels import reference as ref
from repro.octree.builder import Octree
from repro.sampling.fps import FarthestPointSampler
from repro.sampling.ois import OctreeIndexedSampler


def counters_of(result) -> dict:
    return dataclasses.asdict(result)


# ----------------------------------------------------------------------
# Morton / Hamming kernels
# ----------------------------------------------------------------------
class TestMortonKernels:
    @pytest.mark.parametrize("depth", [1, 2, 5, 9, 13, 17, 21])
    def test_encode_decode_roundtrip_random_depths(self, depth):
        rng = np.random.default_rng(depth)
        cells = rng.integers(0, 1 << depth, size=(500, 3))
        codes = encode_cells(cells, depth)
        decoded = [ref.scalar_morton_decode(int(c), depth) for c in codes]
        assert np.array_equal(np.array(decoded), cells)

    @pytest.mark.parametrize("depth", [1, 3, 8, 21])
    def test_encode_matches_scalar_reference(self, depth):
        rng = np.random.default_rng(depth + 100)
        cells = rng.integers(0, 1 << depth, size=(200, 3))
        codes = encode_cells(cells, depth)
        expected = [
            ref.scalar_morton_encode(int(x), int(y), int(z), depth)
            for x, y, z in cells
        ]
        assert codes.tolist() == expected

    def test_encode_points_matches_loop_reference(self, medium_cloud):
        box = medium_cloud.bounds().as_cube(padding=1e-9)
        for depth in (1, 4, 9):
            assert np.array_equal(
                morton_encode_points(medium_cloud.points, box, depth),
                ref.scalar_morton_encode_points(medium_cloud.points, box, depth),
            )

    def test_encode_point_scalar_matches_array_path(self, medium_cloud):
        box = medium_cloud.bounds().as_cube(padding=1e-9)
        extent = np.where(box.size > 0, box.size, 1.0)
        depth = 7
        codes = morton_encode_points(medium_cloud.points, box, depth)
        for index in range(0, medium_cloud.num_points, 37):
            assert (
                encode_point_scalar(
                    medium_cloud.points[index], box.minimum, extent, depth
                )
                == codes[index]
            )

    @pytest.mark.parametrize("depth", [1, 8, 15, 21])
    def test_encode_point_scalar_every_depth(self, medium_cloud, depth):
        """Cell indices past 7 bits take the upper spread chunks; the
        padded box's far corner exercises the top-cell clip."""
        box = medium_cloud.bounds().as_cube(padding=1e-9)
        extent = np.where(box.size > 0, box.size, 1.0)
        points = np.vstack([medium_cloud.points[::29], box.maximum])
        codes = morton_encode_points(points, box, depth)
        for point, code in zip(points, codes):
            assert encode_point_scalar(point, box.minimum, extent, depth) == code

    @pytest.mark.parametrize("depth", range(1, 22))
    def test_point_encoder_matches_both_paths(self, medium_cloud, depth):
        """The bound encoder equals the one-shot scalar call and the array
        path at every depth, with points on the box's max face (top-cell
        clamp) and outside the box on both sides (both clamps)."""
        box = medium_cloud.bounds().as_cube(padding=1e-9)
        extent = np.where(box.size > 0, box.size, 1.0)
        max_face = np.tile(box.minimum, (3, 1))
        max_face[np.arange(3), np.arange(3)] = box.maximum
        points = np.vstack([
            medium_cloud.points[::41],
            box.maximum,
            max_face,
            box.minimum - 0.25 * box.size,
            box.maximum + 0.25 * box.size,
            [box.minimum[0] - 1.0, box.maximum[1] + 1.0, box.center[2]],
        ])
        encode = point_encoder(box.minimum.tolist(), extent.tolist(), depth)
        codes = morton_encode_points(points, box, depth)
        for point, code in zip(points.tolist(), codes.tolist()):
            assert encode(*point) == code
            assert encode_point_scalar(point, box.minimum, extent, depth) == code

    def test_spread_axis_is_one_axis_of_the_code(self):
        """encode_cells is the OR of the per-axis spreads; an index-array
        ``axis`` spreads an axis-major table in one call."""
        rng = np.random.default_rng(6)
        cells = rng.integers(0, 1 << 21, size=(200, 3))
        per_axis = [spread_axis(cells[:, a], a) for a in range(3)]
        assert per_axis[0].dtype == np.uint64
        combined = per_axis[0] | per_axis[1] | per_axis[2]
        assert np.array_equal(combined.astype(np.int64), encode_cells(cells, 21))
        table = spread_axis(cells.T[:, :, None], np.arange(3)[:, None, None])
        assert np.array_equal(table[:, :, 0], np.stack(per_axis))

    def test_encode_rejects_out_of_range_cells(self):
        with pytest.raises(ValueError):
            encode_cells(np.array([[0, 0, 8]]), depth=3)
        with pytest.raises(ValueError):
            encode_cells(np.array([[0, -1, 0]]), depth=3)

    def test_popcount_matches_python_bitcount(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 62, size=2000).astype(np.int64)
        expected = [bin(int(v)).count("1") for v in values]
        assert popcount64(values).tolist() == expected

    def test_hamming_matches_scalar_loop_reference(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 1 << 62, size=1000).astype(np.int64)
        b = int(rng.integers(0, 1 << 62))
        assert np.array_equal(hamming_codes(a, b), ref.scalar_hamming_array(a, b))
        assert hamming_codes(a[:1], b)[0] == ref.scalar_hamming(int(a[0]), b)


# ----------------------------------------------------------------------
# Bucketing kernels
# ----------------------------------------------------------------------
class TestBucketing:
    def test_bucketize_matches_dict_reference(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 97, size=4000).astype(np.int64)
        order, unique_codes, starts, counts = bucketize_codes(codes)
        buckets = ref.dict_bucketize(codes)
        assert unique_codes.tolist() == list(buckets.keys())
        for position, code in enumerate(unique_codes):
            start = starts[position]
            assert np.array_equal(
                order[start : start + counts[position]], buckets[int(code)]
            )

    def test_bucketize_stable_within_bucket(self):
        codes = np.array([5, 1, 5, 1, 5], dtype=np.int64)
        order, unique_codes, starts, counts = bucketize_codes(codes)
        assert unique_codes.tolist() == [1, 5]
        assert order[:2].tolist() == [1, 3]  # ascending original index
        assert order[2:].tolist() == [0, 2, 4]

    SORT_CASES = {
        "heavy_duplicates": np.random.default_rng(5).integers(0, 6, size=3000),
        "all_equal": np.full(1000, 7, dtype=np.int64),
        "one_element": np.array([42], dtype=np.int64),
        "empty": np.zeros(0, dtype=np.int64),
        "wide_codes": np.random.default_rng(6).integers(0, 1 << 40, size=500),
    }

    @pytest.mark.parametrize("case", sorted(SORT_CASES))
    def test_sort_codes_equals_stable_argsort(self, case):
        codes = self.SORT_CASES[case]
        order, sorted_codes = sort_codes(codes)
        expected = np.argsort(codes, kind="stable")
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_codes, codes[expected])
        assert sorted_codes.dtype == codes.dtype

    @pytest.mark.parametrize("case", sorted(SORT_CASES))
    def test_bucketize_edge_codes_match_dict_reference(self, case):
        codes = self.SORT_CASES[case]
        order, unique_codes, starts, counts = bucketize_codes(codes)
        buckets = ref.dict_bucketize(codes)
        assert unique_codes.tolist() == list(buckets.keys())
        assert int(counts.sum()) == codes.shape[0]
        for position, code in enumerate(unique_codes):
            start = starts[position]
            assert np.array_equal(
                order[start : start + counts[position]], buckets[int(code)]
            )

    def test_sort_codes_sorts_each_row_of_a_stack(self):
        codes = np.random.default_rng(7).integers(0, 50, size=(3, 700))
        order, sorted_codes = sort_codes(codes)
        for row in range(3):
            expected = np.argsort(codes[row], kind="stable")
            assert np.array_equal(order[row], expected)
            assert np.array_equal(sorted_codes[row], codes[row][expected])

    @pytest.mark.parametrize("size, packs", [(2, True), (1 << 20, False)])
    def test_sort_codes_63_bit_fallback(self, monkeypatch, size, packs):
        # Depth-21 codes with the top level's X bit clear span 62 bits:
        # one index bit still packs into 63, twenty do not.
        rng = np.random.default_rng(size)
        codes = rng.integers(1 << 61, 1 << 62, size=size, dtype=np.int64)
        codes[-1] = codes[0]  # a tie the order must resolve by index
        expected = np.argsort(codes, kind="stable")
        argsort_calls = []
        real_argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            argsort_calls.append(kwargs.get("kind"))
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        order, sorted_codes = sort_codes(codes)
        assert argsort_calls == ([] if packs else ["stable"])
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_codes, codes[expected])

    @pytest.mark.parametrize(
        "starts,counts",
        [
            ([0, 50, 10, 480], [5, 0, 30, 20]),
            ([7, 7, 3, 100, 490, 0], [0, 1, 0, 4, 10, 0]),  # empty at both ends
            ([5, 5, 5], [3, 3, 3]),  # one bucket repeated
            ([9, 2], [0, 0]),  # nothing to gather
        ],
    )
    def test_gather_ragged_matches_concatenate(self, starts, counts):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1000, size=500)
        starts = np.array(starts, dtype=np.intp)
        counts = np.array(counts, dtype=np.intp)
        flat, segments = gather_ragged(values, starts, counts)
        expected = np.concatenate(
            [values[s : s + c] for s, c in zip(starts, counts)]
        )
        assert np.array_equal(flat, expected)
        assert np.array_equal(segments, np.repeat(np.arange(len(counts)), counts))

    def test_gather_ragged_empty(self):
        flat, segments = gather_ragged(
            np.arange(10), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        )
        assert flat.size == 0 and segments.size == 0


# ----------------------------------------------------------------------
# Chunking / distance kernels
# ----------------------------------------------------------------------
class TestChunkingAndDistance:
    def test_rows_per_chunk_respects_budget_and_minimum(self):
        assert rows_per_chunk(1024, budget_bytes=4096) == 4
        assert rows_per_chunk(10**12) == 1  # never below the minimum
        assert rows_per_chunk(1, maximum=64) == 64

    def test_rows_per_chunk_validation(self):
        with pytest.raises(ValueError):
            rows_per_chunk(0)
        with pytest.raises(ValueError):
            rows_per_chunk(8, minimum=0)

    def test_distance_chunk_rows_derived_from_budget(self):
        rows = distance_chunk_rows(100_000)
        # Two (rows, N) float64 buffers: the distance block and its scratch.
        assert rows * 100_000 * 8 * 2 <= DEFAULT_CHUNK_BUDGET_BYTES
        assert (rows + 1) * 100_000 * 8 * 2 > DEFAULT_CHUNK_BUDGET_BYTES
        assert distance_chunk_rows(10) > rows
        with pytest.raises(ValueError):
            distance_chunk_rows(0)

    def test_pairwise_sq_dists_matches_naive(self, small_cloud):
        queries = small_cloud.points[:7]
        dist = pairwise_sq_dists(queries, small_cloud.points)
        for i in range(7):
            expected = ((small_cloud.points - queries[i]) ** 2).sum(axis=1)
            assert np.array_equal(dist[i], expected)

    @staticmethod
    def _dense_and_coarse(num_dense, num_coarse, seed=0):
        """Query/point sets with exact ties (duplicated coarse points) and
        a dense point coincident with a coarse one (zero distance)."""
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(num_dense, 3)) * 20.0
        coarse = rng.normal(size=(num_coarse, 3)) * 20.0
        coarse[num_coarse // 2] = coarse[0]
        coarse[-1] = coarse[0]
        dense[0] = coarse[0]
        dense[-1] = coarse[num_coarse // 3]
        return dense, coarse

    @pytest.mark.parametrize("num_coarse", [1, 2, 3, 4, 512])
    def test_pairwise_sq_dists_equals_dense_reference(self, num_coarse):
        """The per-coordinate accumulation is bit-identical to the frozen
        ``((q - p)**2).sum(-1)`` -- on this NumPy; a NumPy that associates
        the three-term sum differently fails here, not in a digest."""
        dense, coarse = self._dense_and_coarse(131, num_coarse)
        expected = ref.pairwise_sq_dists_dense(dense, coarse)
        assert np.array_equal(pairwise_sq_dists(dense, coarse), expected)
        out = np.full(expected.shape, np.nan)
        scratch = np.full(expected.shape, np.nan)
        assert pairwise_sq_dists(dense, coarse, out=out, scratch=scratch) is out
        assert np.array_equal(out, expected)
        # Strided inputs (a gathered-then-sliced cloud) take the same path.
        wide = np.concatenate([dense, dense], axis=1)
        assert np.array_equal(pairwise_sq_dists(wide[:, 3:], coarse), expected)

    @pytest.mark.parametrize("num_coarse", [1, 2, 3, 4, 512])
    @pytest.mark.parametrize("block_rows", [None, 8])
    def test_three_nearest_equals_dense_reference(
        self, monkeypatch, num_coarse, block_rows
    ):
        """Blocked selection == selection over the whole matrix: same
        indices in the same (sq_dist, index) order, same distances, for row
        counts around every block boundary."""
        if block_rows is not None:
            monkeypatch.setattr(
                distance_kernels,
                "THREE_NEAREST_BLOCK_BYTES",
                block_rows * num_coarse * 8 * 2,
            )
        rows = distance_chunk_rows(
            num_coarse, budget_bytes=distance_kernels.THREE_NEAREST_BLOCK_BYTES
        )
        if rows > 1024:  # tiny M at the default budget: one block covers all
            sizes = [5, 300]
        else:
            # below/at/over one block, one row into the third block, ragged.
            sizes = [rows - 1, rows, rows + 1, 2 * rows + 1, 2 * rows + rows // 2]
        for num_dense in sizes:
            dense, coarse = self._dense_and_coarse(num_dense, num_coarse, seed=num_dense)
            indices, sq_dists = three_nearest(dense, coarse)
            ref_indices, ref_sq = ref.three_nearest_dense(dense, coarse)
            assert indices.shape == (num_dense, min(3, num_coarse))
            assert np.array_equal(indices, ref_indices), num_dense
            assert np.array_equal(sq_dists, ref_sq), num_dense

    @staticmethod
    def _three_nearest_case(name):
        """``(dense, coarse)`` for one degenerate or workload-shaped case."""
        rng = np.random.default_rng(7)
        axis = np.arange(6, dtype=np.float64)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
        lattice = lattice.reshape(-1, 3)
        random_dense = rng.normal(size=(50, 3))
        if name in ("m1", "m2", "m3"):
            return random_dense, rng.normal(size=(int(name[1]), 3))
        if name == "identical_coarse":
            return random_dense, np.repeat(rng.normal(size=(1, 3)), 9, axis=0)
        if name == "lattice":
            # Half-integer dense points against every fifth integer lattice
            # point: every row has a tie among its four nearest.
            return lattice / 2.0, lattice[::5]
        if name == "coarse_in_dense":
            dense = rng.normal(size=(80, 3))
            return dense, dense[[3, 3, 70, 11, 0, 45, 3, 79]]
        if name == "overflow":
            # Every squared distance overflows to +inf.
            return rng.normal(size=(40, 3)) * 1e200, rng.normal(size=(6, 3)) * 1e200
        if name == "overflow_tail":
            # Two finite distances per row, then +inf: the third pick is
            # the lowest-index +inf entry, not a finite one picked again.
            coarse = rng.normal(size=(6, 3)) * 1e200
            coarse[:2] = rng.normal(size=(2, 3))
            return random_dense, coarse
        num_dense, num_coarse = {"lidar_fp0": (2048, 512), "lidar_fp1": (512, 128)}[name]
        dense = lidar_scene(num_dense, seed=num_coarse).points
        return dense, dense[rng.choice(num_dense, num_coarse, replace=False)]

    @pytest.mark.parametrize(
        "name",
        [
            "m1",
            "m2",
            "m3",
            "identical_coarse",
            "lattice",
            "coarse_in_dense",
            "overflow",
            "overflow_tail",
            "lidar_fp0",
            "lidar_fp1",
        ],
    )
    @pytest.mark.parametrize("block_rows", [None, 8])
    def test_three_nearest_degenerate_table(self, monkeypatch, name, block_rows):
        """Ties, M < 3 and overflowed distances: the blocked search equals
        the stable-sort reference bit for bit, and each row is ascending by
        (sq_dist, index) with distinct indices."""
        dense, coarse = self._three_nearest_case(name)
        if block_rows is not None:
            monkeypatch.setattr(
                distance_kernels,
                "THREE_NEAREST_BLOCK_BYTES",
                block_rows * coarse.shape[0] * 8 * 2,
            )
        with np.errstate(over="ignore"):
            indices, sq_dists = three_nearest(dense, coarse)
            ref_indices, ref_sq = ref.three_nearest_dense(dense, coarse)
        assert indices.shape == (dense.shape[0], min(3, coarse.shape[0]))
        assert np.array_equal(indices, ref_indices)
        assert np.array_equal(sq_dists, ref_sq)
        ascending = sq_dists[:, :-1] <= sq_dists[:, 1:]
        tied = sq_dists[:, :-1] == sq_dists[:, 1:]
        assert ascending.all()
        assert (indices[:, :-1] < indices[:, 1:])[tied].all()

    @pytest.mark.parametrize("k", [1, 10, 37, 200])
    @pytest.mark.parametrize("levels", [None, 2, 7])
    def test_grouped_topk_is_the_stable_sort_prefix(self, k, levels):
        """Ties included: ``levels`` rounds the values to that many distinct
        ones, so the k-th value is tied across the cut in most rows."""
        rng = np.random.default_rng(4)
        dist = rng.uniform(size=(32, 200))
        if levels is not None:
            dist = np.floor(dist * levels)
        dist[3] = 1.0  # one row of a single value
        dist[4, ::3] = np.inf
        top = grouped_topk(dist, k)
        assert np.array_equal(top, np.argsort(dist, axis=1, kind="stable")[:, :k])


# ----------------------------------------------------------------------
# Voxel grid shells
# ----------------------------------------------------------------------
class TestShells:
    def test_occupied_codes_view_is_read_only(self, small_cloud):
        grid = VoxelGrid.build(small_cloud, 3)
        with pytest.raises(ValueError):
            grid.occupied_codes()[0] = -1

    def test_cube_runs_hold_the_scalar_grid_shells(self, medium_cloud):
        """The radius-r cube's z-runs hold exactly the points of the scalar
        grid's shells 0..r."""
        depth = 4
        grid = VoxelGrid.build(medium_cloud, depth)
        scalar = ref.ScalarGrid(medium_cloud, depth)
        codes = grid.occupied_codes()[::5]
        centers = np.array([ref.scalar_morton_decode(int(c), depth) for c in codes]).T
        order = grid.row_major[0]
        for radius in (0, 1, 2):
            lo, hi = grid.cube_runs(centers, radius)
            start, stop = grid.points_before(lo), grid.points_before(hi)
            for i, code in enumerate(codes):
                cube = np.concatenate(
                    [order[a:b] for a, b in zip(start[:, i], stop[:, i])]
                )
                shells = [
                    scalar.points_in_voxel(c)
                    for r in range(radius + 1)
                    for c in scalar.shell_codes(int(code), r)
                ]
                assert np.array_equal(np.sort(cube), np.sort(np.concatenate(shells)))


# ----------------------------------------------------------------------
# Octree construction
# ----------------------------------------------------------------------
def assert_octree_matches_scalar(vectorized, scalar):
    """Every flat array equals the scalar insertion walk's: codes, SFC
    permutation, leaf buckets, per-level node codes and build counts."""
    assert vectorized.depth == scalar.depth
    assert np.array_equal(vectorized.box.minimum, scalar.box.minimum)
    assert np.array_equal(vectorized.box.maximum, scalar.box.maximum)
    assert np.array_equal(vectorized.leaf_codes, scalar.leaf_codes)
    assert np.array_equal(vectorized.point_codes, scalar.point_codes)
    assert np.array_equal(
        vectorized.points_in_sfc_order(), scalar.points_in_sfc_order()
    )
    assert np.array_equal(
        vectorized.leaf_point_counts(), scalar.leaf_point_counts()
    )
    assert np.array_equal(vectorized.leaf_slot_bounds(), scalar.leaf_slot_bounds())
    levels_v, levels_s = vectorized.codes_per_level(), scalar.codes_per_level()
    assert len(levels_v) == len(levels_s) == vectorized.depth + 1
    for codes_v, codes_s in zip(levels_v, levels_s):
        assert np.array_equal(codes_v, codes_s)
    assert vectorized.stats == scalar.stats


class TestOctreeEquivalence:
    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_build_matches_scalar_reference(self, medium_cloud, depth):
        # ``Octree.build`` is ``build_batch`` with B = 1.
        assert_octree_matches_scalar(
            Octree.build(medium_cloud, depth=depth),
            ref.build_octree_scalar(medium_cloud, depth=depth),
        )

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_build_batch_matches_scalar_reference(self, depth):
        # B > 1: every frame of one stacked encode + sort equals the
        # per-frame scalar insertion walk (duplicate points included).
        rng = np.random.default_rng(depth)
        clouds = [
            PointCloud(points=rng.normal(scale=1 + b, size=(500, 3)))
            for b in range(3)
        ]
        clouds.append(PointCloud(points=clouds[0].points[rng.integers(0, 40, 500)]))
        for cloud, octree in zip(clouds, Octree.build_batch(clouds, depth=depth)):
            assert_octree_matches_scalar(
                octree, ref.build_octree_scalar(cloud, depth=depth)
            )

    def test_build_matches_scalar_at_the_lidar_workload_shape(self):
        cloud = lidar_scene(30_000, seed=5)
        assert_octree_matches_scalar(
            Octree.build(cloud, depth=8),
            ref.build_octree_scalar(cloud, depth=8),
        )

    def test_build_batch_frames_with_different_extents(self):
        # The axis-major stack quantises every frame against its own cube.
        rng = np.random.default_rng(9)
        base = rng.uniform(0, 1, size=(800, 3))
        clouds = [
            PointCloud(points=base * [1.0, 1.0, 1.0]),
            PointCloud(points=base * [50.0, 2.0, 0.01] - [1e3, 0.0, 7.0]),
            PointCloud(points=base[::-1] * 1e-6 + 3.0),
        ]
        for cloud, octree in zip(clouds, Octree.build_batch(clouds, depth=7)):
            assert_octree_matches_scalar(
                octree, ref.build_octree_scalar(cloud, depth=7)
            )

    @pytest.mark.parametrize(
        "name", ["one_point", "all_duplicates", "plane_z0", "line_y0_z0"]
    )
    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_build_matches_scalar_on_degenerate_clouds(
        self, degenerate_clouds, name, depth
    ):
        cloud = degenerate_clouds[name]
        assert_octree_matches_scalar(
            Octree.build(cloud, depth=depth),
            ref.build_octree_scalar(cloud, depth=depth),
        )

    def test_points_in_sfc_order_view_is_read_only(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        order = octree.points_in_sfc_order()
        with pytest.raises(ValueError):
            order[0] = -1


# ----------------------------------------------------------------------
# Sampling equivalence
# ----------------------------------------------------------------------
class TestSamplingEquivalence:
    def test_fps_squared_matches_sqrt_reference(self, medium_cloud, cad_cloud):
        for cloud, seed in ((medium_cloud, 0), (cad_cloud, 3)):
            result = FarthestPointSampler(seed=seed).sample(cloud, 96)
            indices, nearest_max = ref.fps_scalar(cloud, 96, seed=seed)
            assert np.array_equal(result.indices, indices)
            assert result.info["nearest_distance_max"] == nearest_max

    @pytest.mark.parametrize("seed", [0, 2, 11])
    @pytest.mark.parametrize("approximate", [False, True])
    def test_ois_identical_for_fixed_seeds(self, medium_cloud, seed, approximate):
        result = OctreeIndexedSampler(seed=seed, approximate=approximate).sample(
            medium_cloud, 128
        )
        indices, counters = ref.ois_scalar(
            medium_cloud, 128, approximate=approximate, seed=seed
        )
        assert np.array_equal(result.indices, indices)
        assert counters_of(result.counters) == counters_of(counters)

    def test_ois_identical_with_prebuilt_octree(self, cad_cloud):
        octree = Octree.build(cad_cloud, depth=4)
        result = OctreeIndexedSampler(octree_depth=4, seed=1).sample(
            cad_cloud, 64, octree=octree
        )
        indices, counters = ref.ois_scalar(
            cad_cloud, 64, octree_depth=4, seed=1, octree=octree
        )
        assert np.array_equal(result.indices, indices)
        assert counters_of(result.counters) == counters_of(counters)

    def test_ois_exhausts_every_point(self, small_cloud):
        result = OctreeIndexedSampler(seed=0).sample(
            small_cloud, small_cloud.num_points
        )
        indices, _ = ref.ois_scalar(small_cloud, small_cloud.num_points, seed=0)
        assert np.array_equal(result.indices, indices)


# ----------------------------------------------------------------------
# Gathering equivalence
# ----------------------------------------------------------------------
class TestGatheringEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"semi_approximate": True, "seed": 4},
            {"depth": 3},
            {"ball_radius": 0.2},
            {"ball_radius": 0.04},
        ],
    )
    def test_veg_identical_to_scalar_reference(self, medium_cloud, kwargs):
        centroids = pick_random_centroids(medium_cloud, 40, seed=0)
        result = VoxelExpandedGatherer(**kwargs).gather(medium_cloud, centroids, 12)
        rows, counters, stage_stats = ref.veg_scalar(
            medium_cloud,
            centroids,
            12,
            depth=kwargs.get("depth"),
            semi_approximate=kwargs.get("semi_approximate", False),
            ball_radius=kwargs.get("ball_radius"),
            seed=kwargs.get("seed", 0),
        )
        assert np.array_equal(result.neighbor_indices, rows)
        assert counters_of(result.counters) == counters_of(counters)
        run_stats = result.info["run_stats"]
        columns = [getattr(run_stats, f.name).tolist() for f in dataclasses.fields(run_stats)]
        assert list(zip(*columns)) == stage_stats

    @pytest.mark.parametrize("fixture", ["lidar_cloud", "cad_cloud"])
    @pytest.mark.parametrize("kwargs", [{}, {"depth": 6}])
    def test_veg_identical_to_scalar_on_lidar_and_cad_shapes(
        self, request, fixture, kwargs
    ):
        """Sparse LiDAR scenes expand many rings (large stencils, clipped at
        the grid faces); CAD surfaces stay shallow.  Rows and every counter
        must not move with the stencil encoding."""
        cloud = request.getfixturevalue(fixture)
        centroids = pick_random_centroids(cloud, 48, seed=2)
        result = VoxelExpandedGatherer(**kwargs).gather(cloud, centroids, 16)
        rows, counters, stage_stats = ref.veg_scalar(
            cloud, centroids, 16, depth=kwargs.get("depth")
        )
        assert np.array_equal(result.neighbor_indices, rows)
        assert counters_of(result.counters) == counters_of(counters)
        run_stats = result.info["run_stats"]
        assert list(
            zip(run_stats.expansions.tolist(), run_stats.voxels_visited.tolist())
        ) == [(stats[0], stats[4]) for stats in stage_stats]

    def test_veg_tiny_cloud_padding_identical(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(points=rng.uniform(-1, 1, size=(25, 3)))
        centroids = np.arange(10)
        result = VoxelExpandedGatherer(depth=4, semi_approximate=True).gather(
            cloud, centroids, 20
        )
        rows, counters, _ = ref.veg_scalar(
            cloud, centroids, 20, depth=4, semi_approximate=True
        )
        assert np.array_equal(result.neighbor_indices, rows)
        assert counters_of(result.counters) == counters_of(counters)

    @pytest.mark.parametrize("radius", [0.05, 0.2, 0.6])
    def test_ballquery_identical_to_scalar_reference(self, medium_cloud, radius):
        centroids = pick_random_centroids(medium_cloud, 300, seed=1)
        result = BallQueryGatherer(radius=radius).gather(medium_cloud, centroids, 10)
        rows, truncated, padded = ref.ballquery_scalar(
            medium_cloud, centroids, 10, radius
        )
        assert np.array_equal(result.neighbor_indices, rows)
        assert result.info["groups_truncated"] == truncated
        assert result.info["groups_padded"] == padded

    def test_veg_exact_equals_bruteforce_knn_on_clustered_voxels(self):
        """Exactness property: when every cluster is voxel-sized and holds
        more than K points, VEG-exact recovers the true KNN sets.

        Clusters are separated by several voxel edges while each cluster's
        diameter stays well under one edge, so a centroid's K nearest all
        come from its own cluster and the shell expansion covers them.
        """
        rng = np.random.default_rng(7)
        lattice = rng.choice(8 * 8 * 8, size=12, replace=False)
        centers = (
            np.stack(
                [lattice // 64, (lattice // 8) % 8, lattice % 8], axis=1
            ).astype(np.float64)
            + 0.5
        ) / 8.0
        cluster_size, neighbors = 12, 8
        points = np.concatenate(
            [
                center + rng.uniform(-0.01, 0.01, size=(cluster_size, 3))
                for center in centers
            ]
        )
        cloud = PointCloud(points=points)
        centroids = np.arange(0, cloud.num_points, 5)

        veg = VoxelExpandedGatherer(depth=3).gather(cloud, centroids, neighbors)
        knn = BruteForceKNN().gather(cloud, centroids, neighbors)
        assert veg.neighbor_sets() == knn.neighbor_sets()

    def test_knn_unchanged_by_chunk_size(self, medium_cloud):
        """The memory-budget chunk helper must not affect results."""
        centroids = pick_random_centroids(medium_cloud, 64, seed=3)
        result = BruteForceKNN().gather(medium_cloud, centroids, 8)
        brute = np.argsort(
            pairwise_sq_dists(
                medium_cloud.points[centroids], medium_cloud.points
            ),
            axis=1,
        )[:, :8]
        assert np.array_equal(np.sort(result.neighbor_indices), np.sort(brute))
