"""Equivalence tests for the flat-first octree stack.

Every path that replaced a pointer-tree walk or a per-item Python loop is
checked bit-for-bit against its frozen scalar reference in
``repro.kernels.reference``: Octree-Table rows and child order, leaf slot
ranges, batched neighbor lists and the voxel-grid representatives.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import (
    gaussian_clusters,
    lidar_scene,
    sample_cad_shape,
    uniform_cube,
)
from repro.geometry.pointcloud import PointCloud
from repro.kernels import isin_sorted, reference as ref
from repro.octree.builder import Octree
from repro.octree.linear import OctreeTable
from repro.octree.memory_layout import HostMemoryLayout
from repro.kernels import chebyshev_codes
from repro.octree.neighbors import (
    chebyshev_distance,
    codes_within_radius,
    codes_within_radius_batch,
    filter_occupied,
    neighbor_codes_at_radius,
    neighbor_codes_batch,
)
from repro.sampling.voxel_grid_sampling import VoxelGridSampler


def random_clouds():
    return [
        (gaussian_clusters(1500, num_clusters=5, seed=11), 4),
        (sample_cad_shape(2500, shape="box", non_uniformity=0.4, seed=3), 6),
        (uniform_cube(400, seed=9), 3),
        (lidar_scene(2000, num_objects=4, seed=2), 5),
    ]


def tables_row_identical(a: OctreeTable, b: OctreeTable) -> None:
    assert len(a) == len(b)
    assert a.depth == b.depth
    assert a.root_index == b.root_index
    assert a.num_points == b.num_points
    for name in (
        "codes",
        "levels",
        "leaf_flags",
        "child_bounds",
        "child_rows",
        "child_octants",
        "addr_starts",
        "addr_ends",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestOctreeTableFlat:
    @pytest.mark.parametrize("case", range(len(random_clouds())))
    def test_from_flat_matches_from_octree_row_for_row(self, case):
        """The per-row entry views equal the pointer-tree walk's."""
        cloud, depth = random_clouds()[case]
        flat = OctreeTable.from_flat(Octree.build(cloud, depth=depth))
        walk = ref.octree_table_scalar(Octree.build(cloud, depth=depth))
        assert flat.entries == walk.entries

    @pytest.mark.parametrize("case", range(len(random_clouds())))
    def test_from_flat_matches_scalar_reference(self, case):
        cloud, depth = random_clouds()[case]
        octree = Octree.build(cloud, depth=depth)
        flat = OctreeTable.from_flat(octree)
        reference = ref.octree_table_scalar(Octree.build(cloud, depth=depth))
        tables_row_identical(flat, reference)

    def test_from_flat_materialises_zero_nodes(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=5)
        table = OctreeTable.from_flat(octree)
        assert octree._root is None, "flat path touched the pointer tree"
        assert octree._leaf_lookup is None
        assert len(table) == octree.num_nodes

    def test_entry_views_match_pointer_walk(self, medium_cloud):
        flat = OctreeTable.from_flat(Octree.build(medium_cloud, depth=4))
        walk = ref.octree_table_scalar(Octree.build(medium_cloud, depth=4))
        assert flat.entries == walk.entries

    def test_leaf_lookup_on_flat_table(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        table = OctreeTable.from_flat(octree)
        for code in octree.leaf_codes[:20]:
            entry = table.leaf_entry_for_code(int(code))
            assert entry is not None and entry.is_leaf and entry.code == code
        assert table.leaf_entry_for_code(-1) is None
        assert table.leaf_row_for_code(-1) == -1

    def test_preprocessing_engine_uses_flat_path(self, cad_cloud):
        from repro.core.engine import PreprocessingEngine

        result = PreprocessingEngine().process(cad_cloud)
        assert result.octree._root is None
        assert len(result.octree_table) == result.octree.num_nodes


class TestLeafSlotRange:
    def test_searchsorted_matches_scan_reference(self, medium_cloud):
        layout = HostMemoryLayout.from_octree(Octree.build(medium_cloud, depth=4))
        reference_octree = Octree.build(medium_cloud, depth=4)
        for code in layout.octree.leaf_codes:
            assert layout.leaf_slot_range(int(code)) == ref.leaf_slot_range_scan(
                reference_octree, int(code)
            )

    def test_unknown_code_raises(self, medium_cloud):
        layout = HostMemoryLayout.from_octree(Octree.build(medium_cloud, depth=4))
        with pytest.raises(KeyError):
            layout.leaf_slot_range(-123)

    def test_slot_range_stays_lazy(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        layout = HostMemoryLayout.from_octree(octree)
        layout.leaf_slot_range(int(octree.leaf_codes[3]))
        assert octree._root is None


class TestBatchedNeighbors:
    @pytest.fixture
    def codes(self):
        rng = np.random.default_rng(5)
        depth = 4
        # Bulk, corners, and edges of the grid so boundary clipping is hit.
        bulk = rng.integers(0, 1 << (3 * depth), size=64)
        corners = [0, (1 << (3 * depth)) - 1]
        return np.unique(np.concatenate([bulk, corners]).astype(np.int64)), depth

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    @pytest.mark.parametrize("include_diagonal", [True, False])
    def test_shell_batch_matches_scalar(self, codes, radius, include_diagonal):
        code_arr, depth = codes
        flat, splits = neighbor_codes_batch(
            code_arr, depth, radius=radius, include_diagonal=include_diagonal
        )
        for i, code in enumerate(code_arr):
            expected = ref.neighbor_codes_at_radius_scalar(
                int(code), depth, radius, include_diagonal=include_diagonal
            )
            assert flat[splits[i] : splits[i + 1]].tolist() == expected

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_cube_batch_matches_scalar(self, codes, radius):
        code_arr, depth = codes
        flat, splits = codes_within_radius_batch(code_arr, depth, radius)
        for i, code in enumerate(code_arr):
            expected = ref.codes_within_radius_scalar(int(code), depth, radius)
            assert flat[splits[i] : splits[i + 1]].tolist() == expected

    def test_scalar_wrappers_match_reference(self, codes):
        code_arr, depth = codes
        for code in code_arr[:10]:
            assert neighbor_codes_at_radius(
                int(code), depth, 2
            ) == ref.neighbor_codes_at_radius_scalar(int(code), depth, 2)
            assert codes_within_radius(
                int(code), depth, 2
            ) == ref.codes_within_radius_scalar(int(code), depth, 2)

    def test_chebyshev_kernel_matches_scalar(self, codes):
        code_arr, depth = codes
        rng = np.random.default_rng(0)
        other = rng.permutation(code_arr)
        batched = chebyshev_codes(code_arr, other, depth)
        for a, b, d in zip(code_arr, other, batched):
            assert int(d) == ref.chebyshev_distance_scalar(int(a), int(b), depth)
            assert int(d) == chebyshev_distance(int(a), int(b), depth)

    def test_filter_occupied_matches_reference(self, codes):
        code_arr, depth = codes
        rng = np.random.default_rng(1)
        occupied = rng.choice(code_arr, size=code_arr.shape[0] // 2, replace=False)
        queries = rng.integers(0, 1 << (3 * depth), size=200).astype(np.int64)
        assert filter_occupied(queries, occupied) == ref.filter_occupied_scalar(
            queries, occupied
        )
        assert filter_occupied([], occupied) == []

    def test_isin_sorted(self):
        sorted_values = np.array([2, 4, 6, 8], dtype=np.int64)
        queries = np.array([1, 2, 3, 8, 9], dtype=np.int64)
        assert isin_sorted(sorted_values, queries).tolist() == [
            False, True, False, True, False,
        ]
        assert isin_sorted(np.zeros(0, dtype=np.int64), queries).tolist() == [
            False] * 5


class TestVoxelGridVectorised:
    @pytest.mark.parametrize(
        "make,num_samples",
        [
            (lambda: gaussian_clusters(2500, num_clusters=6, seed=7), 256),
            (lambda: sample_cad_shape(1800, shape="sphere", seed=1), 400),
        ],
    )
    def test_representatives_match_scalar(self, make, num_samples):
        cloud = make()
        result = VoxelGridSampler().sample(cloud, num_samples)
        expected = ref.voxelgrid_sample_scalar(
            cloud, num_samples, result.info["depth"]
        )
        assert np.array_equal(result.indices, expected)

    def test_fill_path_matches_scalar(self):
        # Few distinct voxels force the most-populated-voxel fill loop.
        rng = np.random.default_rng(2)
        base = rng.uniform(0, 1, size=(60, 3))
        cloud = PointCloud(points=base[rng.integers(0, 60, size=1200)])
        result = VoxelGridSampler().sample(cloud, 300)
        assert result.info["occupied_voxels"] < 300  # fill path taken
        expected = ref.voxelgrid_sample_scalar(cloud, 300, result.info["depth"])
        assert np.array_equal(result.indices, expected)


def three_nearest_interpolation(dense_points, coarse_points, coarse_features):
    """Independent per-frame FP formula on the 2-D ``(N, M)`` distances:
    full sqrt distances before selection (the pre-squared-distance code),
    the nearest taken in ``(dist, index)`` order by a stable sort."""
    num_coarse = coarse_points.shape[0]
    if num_coarse == 1:
        return np.repeat(coarse_features, dense_points.shape[0], axis=0)
    diff = dense_points[:, None, :] - coarse_points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1)) + 1e-10
    k = min(3, num_coarse)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    near_dist = np.take_along_axis(dist, nearest, axis=1)
    weights = 1.0 / near_dist
    weights = weights / weights.sum(axis=1, keepdims=True)
    return (coarse_features[nearest] * weights[..., None]).sum(axis=1)


class TestFeaturePropagationSquared:
    def test_interpolation_matches_sqrt_formula(self):
        from repro.network.pointnet2 import FeaturePropagation

        rng = np.random.default_rng(3)
        dense = PointCloud(points=rng.uniform(-1, 1, size=(120, 3)))
        coarse = PointCloud(points=rng.uniform(-1, 1, size=(20, 3)))
        coarse_features = rng.normal(size=(20, 16))

        # The subject is the interpolation formula: pin the reference
        # backend, whose dense layer is ``fp.mlp`` itself.
        fp = FeaturePropagation("fp", [16, 32], backend="numpy")
        refined, trace = fp(dense, None, coarse, coarse_features)

        expected = fp.mlp(
            three_nearest_interpolation(dense.points, coarse.points, coarse_features)
        )
        assert np.array_equal(refined, expected)
        assert trace.num_vectors == 120

    @pytest.mark.parametrize("num_coarse", [1, 2, 3, 20])
    @pytest.mark.parametrize("dense_channels", [0, 5])
    def test_forward_batch_matches_per_frame_formula(self, num_coarse, dense_channels):
        """Every frame of a stack equals the formula applied to it alone,
        bit for bit on the numpy reference backend."""
        from repro.network.pointnet2 import FeaturePropagation

        rng = np.random.default_rng(11 + num_coarse)
        num_frames, num_dense = 3, 70
        dense = [
            PointCloud(points=rng.uniform(-1, 1, size=(num_dense, 3)))
            for _ in range(num_frames)
        ]
        coarse = [
            PointCloud(points=rng.uniform(-1, 1, size=(num_coarse, 3)))
            for _ in range(num_frames)
        ]
        coarse_features = rng.normal(size=(num_frames, num_coarse, 16))
        dense_features = (
            rng.normal(size=(num_frames, num_dense, dense_channels))
            if dense_channels
            else None
        )

        fp = FeaturePropagation("fp", [dense_channels + 16, 32], backend="numpy")
        refined, traces = fp.forward_batch(
            dense, dense_features, coarse, coarse_features
        )

        assert refined.shape == (num_frames, num_dense, 32)
        assert [t.num_vectors for t in traces] == [num_dense] * num_frames
        for b in range(num_frames):
            interpolated = three_nearest_interpolation(
                dense[b].points, coarse[b].points, coarse_features[b]
            )
            if dense_features is not None:
                interpolated = np.concatenate(
                    [dense_features[b], interpolated], axis=-1
                )
            assert np.array_equal(refined[b], fp.mlp(interpolated)), b


def dense_reference_interpolation(dense_points, coarse_points, coarse_features):
    """The replaced FP formulation, frozen: selection over the whole
    ``(N, M)`` matrix, then one ``(N, k, C)`` gather summed over ``k``."""
    if coarse_points.shape[0] == 1:
        return np.repeat(coarse_features, dense_points.shape[0], axis=0)
    nearest, near_sq = ref.three_nearest_dense(dense_points, coarse_points)
    weights = 1.0 / (np.sqrt(near_sq) + 1e-10)
    weights = weights / weights.sum(axis=1, keepdims=True)
    return (coarse_features[nearest] * weights[..., None]).sum(axis=1)


class TestFeaturePropagationStreamed:
    """The blocked three-nearest search and per-neighbour accumulation
    against the materialised formulation they replaced."""

    @staticmethod
    def _frames(num_coarse, num_frames=3, num_dense=300, channels=16, skip=5):
        """Stacks with exact ties (duplicated coarse points) and dense
        points coincident with a coarse one (the ``+ 1e-10`` weight);
        300 dense rows leave a ragged last block at the default budget."""
        rng = np.random.default_rng(40 + num_coarse)
        dense, coarse = [], []
        for _ in range(num_frames):
            coarse_points = rng.uniform(-1, 1, size=(num_coarse, 3))
            coarse_points[num_coarse // 2] = coarse_points[0]
            dense_points = rng.uniform(-1, 1, size=(num_dense, 3))
            dense_points[0] = coarse_points[0]
            dense_points[-1] = coarse_points[-1]
            dense.append(PointCloud(points=dense_points))
            coarse.append(PointCloud(points=coarse_points))
        coarse_features = rng.normal(size=(num_frames, num_coarse, channels))
        dense_features = rng.normal(size=(num_frames, num_dense, skip))
        return dense, dense_features, coarse, coarse_features

    @pytest.mark.parametrize("num_coarse", [1, 2, 3, 4, 512])
    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    def test_stack_equals_per_frame_and_dense_reference(self, num_coarse, backend):
        from repro.network.pointnet2 import FeaturePropagation

        dense, dense_features, coarse, coarse_features = self._frames(num_coarse)
        fp = FeaturePropagation("fp", [5 + 16, 32], backend=backend)
        refined, _ = fp.forward_batch(dense, dense_features, coarse, coarse_features)
        assert refined.shape == (3, 300, 32)
        for b in range(3):
            alone, _ = fp(dense[b], dense_features[b], coarse[b], coarse_features[b])
            assert np.array_equal(refined[b], alone), b
            expected = fp.mlp(
                np.concatenate(
                    [
                        dense_features[b],
                        dense_reference_interpolation(
                            dense[b].points, coarse[b].points, coarse_features[b]
                        ),
                    ],
                    axis=-1,
                )
            )
            assert fp.backend.contract.matches(refined[b], expected), b

    def test_channel_mismatch_raises_before_any_distance_work(self, monkeypatch):
        from repro.network import pointnet2

        def no_search(*_):
            raise AssertionError("searched before validating channels")

        monkeypatch.setattr(pointnet2, "three_nearest", no_search)
        dense, dense_features, coarse, coarse_features = self._frames(4)
        fp = pointnet2.FeaturePropagation("fp", [16, 32])
        with pytest.raises(ValueError, match="fp: MLP expects 16 input channels, got 21"):
            fp.forward_batch(dense, dense_features, coarse, coarse_features)

    def test_lidar_fp0_shape_stays_under_temporary_budget(self):
        """The 'never materialise' rule as a test: at the LiDAR fp0 shape
        (2048 dense x 512 coarse x 128 channels) the layer, on the default
        streamed backend, peaks below 8 MB beyond its output; the dense
        formulation's (N, M, 3) difference block, its square and the (N, M)
        matrix came to ~58 MB."""
        from repro.network.pointnet2 import FeaturePropagation

        rng = np.random.default_rng(0)
        dense = [PointCloud(points=rng.uniform(-40, 40, size=(2048, 3)))]
        coarse = [PointCloud(points=rng.uniform(-40, 40, size=(512, 3)))]
        coarse_features = rng.normal(size=(1, 512, 128))
        fp = FeaturePropagation("fp0", [128, 128], backend="fused")
        fp.forward_batch(dense, None, coarse, coarse_features)  # workspaces
        tracemalloc.start()
        try:
            refined, _ = fp.forward_batch(dense, None, coarse, coarse_features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - refined.nbytes < 8 * 1024 * 1024
