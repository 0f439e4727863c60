"""OIS walk vs the frozen scalar loop: bit-identity property tests.

The sampler's ``_run_sampling_loop`` is one exact walk per pick over
per-level Python lists; the one-sample-at-a-time array walk it must match
is frozen in :func:`repro.kernels.reference.ois_sample_scalar`.  The
contract is strict bit-identity -- the same picked indices in the same
order AND the same operation counters (node visits, Hamming evaluations,
on-chip traffic) -- in both exactness modes, at any octree depth, on
degenerate inputs (duplicate coordinates, a single leaf, ``k == n``) and
at the frame shapes the end-to-end workloads run.

The benchmark harness re-asserts the same contract at 100k-point scale on
every run (``ois_wavefront`` scenario).
"""

import numpy as np
import pytest

from repro.datasets.synthetic import lidar_scene, sample_cad_shape
from repro.geometry.pointcloud import PointCloud
from repro.kernels import reference as ref
from repro.octree.builder import Octree
from repro.kernels.morton import MAX_DEPTH
from repro.sampling.ois import _BEST, _RANK, OctreeIndexedSampler


def _assert_matches_frozen(cloud, k, depth=None, approximate=False, seed=7):
    sampler = OctreeIndexedSampler(
        octree_depth=depth, approximate=approximate, seed=seed
    )
    result = sampler.sample(cloud, k)
    ref_indices, ref_counters = ref.ois_sample_scalar(
        cloud, k, octree_depth=depth, approximate=approximate, seed=seed
    )
    np.testing.assert_array_equal(np.asarray(result.indices), ref_indices)
    assert result.counters.as_dict() == ref_counters.as_dict()


def _random_cloud(rng, n, duplicates=False):
    points = rng.random((n, 3)) * (rng.random(3) * 10 + 0.1)
    if duplicates and n > 10:
        src = rng.integers(0, n, n // 2)
        dst = rng.integers(0, n, n // 2)
        points[dst] = points[src]
    return PointCloud(points=points)


class TestOISWalkBitIdentity:
    @pytest.mark.parametrize("trial", range(12))
    def test_random_clouds_random_depths(self, trial):
        """Random sizes, depths, and sample counts, both modes."""
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(5, 1500))
        k = int(rng.integers(1, n + 1))
        depth = [None, 1, 2, 3, 4, 5][trial % 6]
        cloud = _random_cloud(rng, n, duplicates=trial % 3 == 0)
        for approximate in (False, True):
            _assert_matches_frozen(cloud, k, depth=depth,
                                   approximate=approximate)

    def test_duplicate_coordinate_cloud(self):
        """Duplicate points collapse into shared leaves and force early
        leaf exhaustion, so walks skip drained children."""
        rng = np.random.default_rng(7)
        base = rng.random((40, 3))
        points = np.concatenate([base] * 8, axis=0)
        cloud = PointCloud(points=points)
        for approximate in (False, True):
            _assert_matches_frozen(cloud, cloud.num_points // 2,
                                   approximate=approximate)

    def test_sample_every_point(self):
        """k == n drains every leaf; exhaustion ordering must agree."""
        rng = np.random.default_rng(11)
        cloud = _random_cloud(rng, 300, duplicates=True)
        for approximate in (False, True):
            _assert_matches_frozen(cloud, cloud.num_points,
                                   approximate=approximate)

    def test_prebuilt_octree_both_sides(self):
        """The benchmark pits both implementations on one shared octree;
        the identity must hold there too (no build counters on either
        side)."""
        rng = np.random.default_rng(21)
        cloud = _random_cloud(rng, 1200)
        octree = Octree.build(cloud, depth=4)
        result = OctreeIndexedSampler(octree_depth=4, seed=0).sample(
            cloud, 256, octree=octree
        )
        ref_indices, ref_counters = ref.ois_sample_scalar(
            cloud, 256, octree_depth=4, seed=0, octree=octree
        )
        np.testing.assert_array_equal(np.asarray(result.indices), ref_indices)
        assert result.counters.as_dict() == ref_counters.as_dict()

    def test_tiny_clouds(self):
        """Clouds of one to nine points, sampled once and exhaustively."""
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5, 9):
            cloud = _random_cloud(rng, n)
            for k in (1, n):
                _assert_matches_frozen(cloud, k)

    @pytest.mark.parametrize("approximate", [False, True])
    def test_lidar_workload_shape(self, approximate):
        """A ``lidar_scene`` frame at the LiDAR workloads' depth 8, down-
        sampled to K = 2048: a deep, sparse table where long runs of picks
        share the upper levels of the summary code."""
        cloud = lidar_scene(30_000, seed=5)
        _assert_matches_frozen(cloud, 2048, depth=8, approximate=approximate,
                               seed=3)

    @pytest.mark.parametrize("approximate", [False, True])
    def test_cad_workload_shape(self, approximate):
        """A ``sample_cad_shape`` frame at the classification workload's
        shape: 4096 points at depth 5 down-sampled to K = 1024."""
        cloud = sample_cad_shape(4096, shape="box", non_uniformity=0.3,
                                 seed=9)
        _assert_matches_frozen(cloud, 1024, depth=5, approximate=approximate,
                               seed=3)

    @pytest.mark.parametrize("depth", [12, 16, MAX_DEPTH])
    def test_deep_octrees(self, depth):
        """Past depth 7 the summary encode takes the second and third 7-bit
        spread chunks, and a small cloud's table is mostly single-child
        chains."""
        rng = np.random.default_rng(depth)
        for n, k in ((40, 40), (400, 150)):
            cloud = _random_cloud(rng, n, duplicates=True)
            for approximate in (False, True):
                _assert_matches_frozen(cloud, k, depth=depth,
                                       approximate=approximate)

    @pytest.mark.parametrize("approximate", [False, True])
    def test_single_leaf_octree(self, approximate):
        """All points identical: one leaf under a chain of only children."""
        cloud = PointCloud(points=np.tile([[0.3, -1.0, 2.5]], (25, 1)))
        for k in (1, cloud.num_points):
            _assert_matches_frozen(cloud, k, depth=6, approximate=approximate)

    @pytest.mark.parametrize("approximate", [False, True])
    def test_sample_every_point_at_depth_8(self, approximate):
        """k == n at the LiDAR depth: every node's round runs down to its
        last live child."""
        cloud = _random_cloud(np.random.default_rng(8), 700, duplicates=True)
        _assert_matches_frozen(cloud, cloud.num_points, depth=8,
                               approximate=approximate)


def test_walk_tables_match_brute_force():
    """``_BEST`` is the reference's first maximum of the Hamming distance
    over the round's digits in ascending (SFC) order; ``_RANK`` is a
    digit's position among the set digits of the kids mask."""
    for mask in range(256):
        digits = [d for d in range(8) if mask >> d & 1]
        for digit in range(8):
            best = None
            for d in digits:
                if best is None or (bin(d ^ digit).count("1")
                                    > bin(best ^ digit).count("1")):
                    best = d
            if best is not None:
                assert _BEST[(mask << 3) | digit] == best
        for position, d in enumerate(digits):
            assert _RANK[(mask << 3) | d] == position
