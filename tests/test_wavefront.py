"""Wavefront OIS vs the frozen scalar loop: bit-identity property tests.

PR 9 rewrote ``OctreeIndexedSampler._run_sampling_loop`` as a speculative
multi-sample wavefront descent; the pre-wavefront loop is frozen verbatim
in :func:`repro.kernels.reference.ois_sample_scalar`.  The contract is
strict bit-identity -- the same picked indices in the same order AND the
same operation counters (node visits, Hamming evaluations, on-chip
traffic) -- for every wavefront width, both exactness modes, any octree
depth, and degenerate inputs (duplicate coordinates, ``k == n``).

These tests are the randomised slice of the 400-case sweep used while
developing the rewrite; the benchmark harness re-asserts the same
contract at 100k-point scale on every run (``ois_wavefront`` scenario).
"""

import numpy as np
import pytest

from repro.geometry.pointcloud import PointCloud
from repro.kernels import reference as ref
from repro.octree.builder import Octree
from repro.sampling.ois import OctreeIndexedSampler


def _assert_matches_frozen(cloud, k, depth=None, approximate=False, seed=7,
                           wavefront=None):
    sampler = OctreeIndexedSampler(
        octree_depth=depth, approximate=approximate, seed=seed,
        wavefront=wavefront,
    )
    result = sampler.sample(cloud, k)
    ref_indices, ref_counters = ref.ois_sample_scalar(
        cloud, k, octree_depth=depth, approximate=approximate, seed=seed
    )
    np.testing.assert_array_equal(np.asarray(result.indices), ref_indices)
    assert result.counters.as_dict() == ref_counters.as_dict()
    # Every pick is the seed, a scalar descent or a committed lane, and
    # every launch commits at least its first lane.
    wave = result.info["wavefront"]
    assert 1 + wave["scalar_descents"] + wave["committed_lanes"] == k
    assert wave["launches"] <= wave["committed_lanes"] <= wave["speculated_lanes"]
    return wave


def _random_cloud(rng, n, duplicates=False):
    points = rng.random((n, 3)) * (rng.random(3) * 10 + 0.1)
    if duplicates and n > 10:
        src = rng.integers(0, n, n // 2)
        dst = rng.integers(0, n, n // 2)
        points[dst] = points[src]
    return PointCloud(points=points)


class TestWavefrontBitIdentity:
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

    @pytest.mark.parametrize("wavefront", [1, 2, 3, 257])
    def test_every_wavefront_width_identical(self, wavefront):
        """Width is purely a perf knob: W=1 degenerates to the scalar
        walk, tiny widths stress the regroup/ramp logic, and a width far
        above the sample count stresses truncation."""
        rng = np.random.default_rng(42)
        cloud = _random_cloud(rng, 900)
        _assert_matches_frozen(cloud, 200, wavefront=wavefront)

    def test_wavefront_info_separates_speculation_from_scalar_walk(self):
        """``info["wavefront"]`` is the recorded commit rate: width 1 never
        launches, the default width does and wastes some lanes."""
        rng = np.random.default_rng(42)
        cloud = _random_cloud(rng, 900)
        serial = _assert_matches_frozen(cloud, 200, wavefront=1)
        assert serial == {
            "launches": 0,
            "speculated_lanes": 0,
            "committed_lanes": 0,
            "scalar_descents": 199,
        }
        speculative = _assert_matches_frozen(cloud, 200)
        assert speculative["launches"] > 0
        assert speculative["committed_lanes"] < speculative["speculated_lanes"]

    def test_duplicate_coordinate_cloud(self):
        """Duplicate points collapse into shared leaves and force early
        leaf exhaustion -- the drain path of the wavefront kernels."""
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
        """n small enough that the wavefront never leaves the ramp."""
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5, 9):
            cloud = _random_cloud(rng, n)
            for k in (1, n):
                _assert_matches_frozen(cloud, k)
