"""Unit tests for repro.octree.builder (the flat octree)."""

import numpy as np
import pytest

from repro.geometry.morton import morton_encode_points
from repro.geometry.pointcloud import PointCloud
from repro.kernels.reference import scalar_morton_decode
from repro.octree.builder import Octree


def leaf_points(octree):
    """Each leaf's point indices, in leaf (SFC) order, from the flat arrays."""
    order = octree.points_in_sfc_order()
    bounds = octree.leaf_slot_bounds()
    return [order[bounds[i] : bounds[i + 1]] for i in range(octree.num_leaves)]


def leaf_box(octree, code):
    """``(minimum, maximum)`` of leaf voxel ``code`` inside the root cube."""
    cell = octree.box.size / (1 << octree.depth)
    minimum = octree.box.minimum + np.array(scalar_morton_decode(int(code), octree.depth)) * cell
    return minimum, minimum + cell


class TestBuild:
    def test_all_points_stored_exactly_once(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        stored = np.concatenate(leaf_points(octree))
        assert sorted(stored.tolist()) == list(range(medium_cloud.num_points))

    def test_leaf_codes_match_point_codes(self, small_cloud):
        octree = Octree.build(small_cloud, depth=3)
        for code, indices in zip(octree.leaf_codes, leaf_points(octree)):
            assert indices.shape[0] > 0
            for index in indices:
                assert octree.point_codes[index] == code

    def test_leaf_boxes_contain_their_points(self, small_cloud):
        octree = Octree.build(small_cloud, depth=3)
        for code, indices in zip(octree.leaf_codes, leaf_points(octree)):
            minimum, maximum = leaf_box(octree, code)
            pts = small_cloud.points[indices]
            # Allow a tiny tolerance for points exactly on voxel faces that
            # clipping assigns to the lower-index voxel.
            assert (pts >= minimum - 1e-9).all()
            assert (pts <= maximum + 1e-9).all()

    def test_levels_consistent(self, small_cloud):
        """Every node's parent is one level up (its code shifted by one
        octant), and the leaf level is the deepest."""
        octree = Octree.build(small_cloud, depth=4)
        levels = octree.codes_per_level()
        assert len(levels) == octree.depth + 1
        assert levels[0].tolist() == [0]
        assert np.array_equal(levels[octree.depth], octree.leaf_codes)
        for level in range(1, octree.depth + 1):
            assert np.all(np.diff(levels[level]) > 0)
            assert np.isin(levels[level] >> 3, levels[level - 1]).all()
            assert np.unique(levels[level] >> 3).shape == levels[level - 1].shape

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            Octree.build(PointCloud(points=np.zeros((0, 3))), depth=3)

    def test_single_point_cloud(self):
        octree = Octree.build(PointCloud(points=np.array([[0.3, 0.7, 0.1]])), depth=4)
        assert octree.num_leaves == 1
        assert octree.leaf_slot_bounds().tolist() == [0, 1]
        assert octree.num_nodes == 1 + octree.depth

    def test_leaf_of_point(self, medium_cloud):
        """A point's code names the leaf whose slot range holds it."""
        octree = Octree.build(medium_cloud, depth=4)
        order = octree.points_in_sfc_order()
        bounds = octree.leaf_slot_bounds()
        for index in (0, 17, medium_cloud.num_points - 1):
            position = int(np.searchsorted(octree.leaf_codes, octree.point_codes[index]))
            assert octree.leaf_codes[position] == octree.point_codes[index]
            assert index in order[bounds[position] : bounds[position + 1]]

    def test_leaf_lookup_by_code(self, small_cloud):
        octree = Octree.build(small_cloud, depth=3)
        code = int(octree.leaf_codes[0])
        assert octree.leaf_point_counts()[0] == np.count_nonzero(octree.point_codes == code)

    def test_sfc_order_is_sorted_by_code(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=5)
        codes = octree.leaf_codes.tolist()
        assert codes == sorted(set(codes))

    def test_points_in_sfc_order_nondecreasing_codes(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=5)
        order = octree.points_in_sfc_order()
        codes = octree.point_codes[order]
        assert np.all(codes[:-1] <= codes[1:])

    def test_leaf_center_encodes_back_to_leaf(self, small_cloud):
        octree = Octree.build(small_cloud, depth=4)
        for code in octree.leaf_codes[:10]:
            minimum, maximum = leaf_box(octree, code)
            center = (minimum + maximum) / 2
            recomputed = morton_encode_points(center[None, :], octree.box, 4)[0]
            assert recomputed == code


class TestBuildStats:
    def test_memory_traffic_model(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        stats = octree.stats
        assert stats.num_points == medium_cloud.num_points
        assert stats.host_memory_reads == medium_cloud.num_points
        # One write per point (reorganised copy) plus one per created node.
        assert stats.host_memory_writes == medium_cloud.num_points + stats.num_nodes
        assert stats.num_leaves == octree.num_leaves
        assert stats.max_leaf_occupancy >= 1

    def test_node_count_matches_traversal(self, small_cloud):
        octree = Octree.build(small_cloud, depth=3)
        assert octree.stats.num_nodes == sum(
            codes.shape[0] for codes in octree.codes_per_level()
        )

    def test_deeper_tree_more_leaves(self, medium_cloud):
        shallow = Octree.build(medium_cloud, depth=3)
        deep = Octree.build(medium_cloud, depth=6)
        assert deep.num_leaves >= shallow.num_leaves


class TestNonUniformity:
    def test_clustered_cloud_more_non_uniform_than_uniform(self, rng):
        from clouds import gaussian_clusters, uniform_cube

        uniform = Octree.build(uniform_cube(2000, seed=1), depth=4)
        clustered = Octree.build(
            gaussian_clusters(2000, num_clusters=3, seed=1), depth=4
        )
        assert clustered.non_uniformity() > uniform.non_uniformity()

    def test_occupancy_histogram_total(self, medium_cloud):
        octree = Octree.build(medium_cloud, depth=4)
        assert int(octree.leaf_point_counts().sum()) == medium_cloud.num_points
