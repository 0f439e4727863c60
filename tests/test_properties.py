"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.knn import BruteForceKNN
from repro.datastructuring.veg import VoxelExpandedGatherer
from repro.geometry.pointcloud import PointCloud
from repro.octree.builder import Octree
from repro.octree.linear import OctreeTable
from repro.sampling.fps import FarthestPointSampler, fps_counter_model
from repro.sampling.ois import OctreeIndexedSampler, ois_counter_model


def cloud_strategy(min_points: int = 20, max_points: int = 120):
    """Random finite point clouds inside a bounded cube."""
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_value=min_points, max_value=max_points), st.just(3)
        ),
        elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    ).map(lambda pts: PointCloud(points=pts))


@settings(max_examples=25, deadline=None)
@given(cloud=cloud_strategy(), depth=st.integers(min_value=1, max_value=5))
def test_octree_partitions_points(cloud, depth):
    """Every point lands in exactly one leaf, whatever the cloud looks like."""
    octree = Octree.build(cloud, depth=depth)
    order = octree.points_in_sfc_order()
    bounds = octree.leaf_slot_bounds()
    stored = np.concatenate(
        [order[bounds[i] : bounds[i + 1]] for i in range(octree.num_leaves)]
    )
    assert sorted(stored.tolist()) == list(range(cloud.num_points))
    assert np.all(np.diff(bounds) > 0)


@settings(max_examples=25, deadline=None)
@given(cloud=cloud_strategy(), depth=st.integers(min_value=1, max_value=4))
def test_octree_table_address_ranges_partition_points(cloud, depth):
    octree = Octree.build(cloud, depth=depth)
    table = OctreeTable.from_flat(octree)
    rows = np.flatnonzero(table.leaf_flags)
    rows = rows[np.argsort(table.codes[rows], kind="stable")]
    spans = zip(table.addr_starts[rows], table.addr_ends[rows])
    covered = []
    for start, end in spans:
        covered.extend(range(start, end))
    assert covered == list(range(cloud.num_points))


@settings(max_examples=25, deadline=None)
@given(cloud=cloud_strategy(), depth=st.integers(min_value=1, max_value=4))
def test_host_memory_layout_is_a_permutation(cloud, depth):
    """The reorganised host copy (the SFC permutation) holds every point
    once, in non-decreasing m-code order."""
    octree = Octree.build(cloud, depth=depth)
    slot_to_original = octree.points_in_sfc_order()
    assert sorted(slot_to_original.tolist()) == list(range(cloud.num_points))
    original_to_slot = np.empty_like(slot_to_original)
    original_to_slot[slot_to_original] = np.arange(cloud.num_points)
    assert np.array_equal(
        slot_to_original[original_to_slot], np.arange(cloud.num_points)
    )
    assert np.all(np.diff(octree.point_codes[slot_to_original]) >= 0)


@settings(max_examples=20, deadline=None)
@given(cloud=cloud_strategy(min_points=30, max_points=100), data=st.data())
def test_samplers_return_valid_unique_indices(cloud, data):
    num_samples = data.draw(
        st.integers(min_value=1, max_value=cloud.num_points), label="num_samples"
    )
    for sampler in (FarthestPointSampler(seed=0), OctreeIndexedSampler(seed=0)):
        result = sampler.sample(cloud, num_samples)
        assert result.num_samples == num_samples
        assert len(set(result.indices.tolist())) == num_samples
        assert result.indices.min() >= 0
        assert result.indices.max() < cloud.num_points


@settings(max_examples=20, deadline=None)
@given(
    num_points=st.integers(min_value=1_000, max_value=2_000_000),
    num_samples=st.integers(min_value=16, max_value=16_384),
    depth=st.integers(min_value=2, max_value=12),
)
def test_counter_models_ois_always_cheaper_on_memory(num_points, num_samples, depth):
    """The OIS memory-access advantage holds across the whole parameter space
    the paper sweeps (frame sizes, sampled counts, octree depths)."""
    if num_samples > num_points:
        num_samples = num_points
    fps = fps_counter_model(num_points, num_samples)
    ois = ois_counter_model(num_points, num_samples, depth)
    assert ois.total_host_memory_accesses() < fps.total_host_memory_accesses()


@settings(max_examples=15, deadline=None)
@given(cloud=cloud_strategy(min_points=60, max_points=150), data=st.data())
def test_veg_gathers_valid_points(cloud, data):
    neighbors = data.draw(st.integers(min_value=1, max_value=16), label="neighbors")
    num_centroids = data.draw(st.integers(min_value=1, max_value=8), label="centroids")
    centroids = pick_random_centroids(cloud, num_centroids, seed=0)
    result = VoxelExpandedGatherer(seed=0).gather(cloud, centroids, neighbors)
    assert result.neighbor_indices.shape == (num_centroids, neighbors)
    assert result.neighbor_indices.min() >= 0
    assert result.neighbor_indices.max() < cloud.num_points


@settings(max_examples=10, deadline=None)
@given(cloud=cloud_strategy(min_points=80, max_points=150))
def test_veg_never_sorts_more_than_bruteforce(cloud):
    centroids = pick_random_centroids(cloud, 8, seed=0)
    veg = VoxelExpandedGatherer(seed=0).gather(cloud, centroids, 8)
    knn = BruteForceKNN().gather(cloud, centroids, 8)
    # Degenerate grids (everything in one voxel) can make VEG's last shell
    # include the centroid itself, costing at most one extra comparison per
    # centroid over brute force; it is never worse than that.
    assert veg.counters.compare_ops <= knn.counters.compare_ops + len(centroids)
