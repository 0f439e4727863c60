"""Unit tests for repro.network.workload."""

import pytest

from repro.core.framebatch import FrameBatch
from repro.core.metrics import OpCounters
from repro.geometry.pointcloud import PointCloud
from repro.network.pointnet2 import PointNet2Classification
from repro.network.workload import (
    extract_workload,
    synthetic_data_structuring_counters,
    synthetic_pointnet2_workload,
)


class TestExtractWorkload:
    def test_macs_match_forward_trace(self, rng):
        cloud = PointCloud(points=rng.uniform(size=(128, 3)))
        model = PointNet2Classification(num_classes=10, input_size=128, neighbors=8)
        result = model.forward_batch(FrameBatch.from_clouds([cloud]))[0]
        workload = extract_workload(result)
        assert workload.total_mac_ops() == result.total_mac_ops()
        assert workload.num_gather_groups > 0
        assert isinstance(workload.data_structuring, OpCounters)

    def test_layer_list_non_empty(self, rng):
        cloud = PointCloud(points=rng.uniform(size=(128, 3)))
        model = PointNet2Classification(num_classes=10, input_size=128, neighbors=8)
        workload = extract_workload(
            model.forward_batch(FrameBatch.from_clouds([cloud]))[0]
        )
        assert len(workload.layers) >= 6
        assert all(layer.mac_ops > 0 for layer in workload.layers)


class TestSyntheticWorkload:
    def test_scales_with_input_size(self):
        small = synthetic_pointnet2_workload(1024, task="semantic_segmentation")
        large = synthetic_pointnet2_workload(16384, task="semantic_segmentation")
        assert large.total_mac_ops() > 4 * small.total_mac_ops()

    def test_classification_vs_segmentation_structure(self):
        cls = synthetic_pointnet2_workload(1024, task="classification")
        seg = synthetic_pointnet2_workload(1024, task="semantic_segmentation")
        assert {l.name for l in cls.layers} != {l.name for l in seg.layers}

    def test_matches_functional_model_shapes(self, rng):
        """The analytic workload reproduces the functional model's MAC count."""
        input_size = 128
        cloud = PointCloud(points=rng.uniform(size=(input_size, 3)))
        model = PointNet2Classification(
            num_classes=40, input_size=input_size, neighbors=32
        )
        functional = extract_workload(
            model.forward_batch(FrameBatch.from_clouds([cloud]))[0]
        )
        analytic = synthetic_pointnet2_workload(
            input_size, task="classification", neighbors=32
        )
        # Same order of magnitude; the functional pass clamps neighbor counts
        # for tiny inputs so an exact match is not expected.
        ratio = analytic.total_mac_ops() / functional.total_mac_ops()
        assert 0.5 < ratio < 2.0

    def test_gather_groups_counted(self):
        workload = synthetic_pointnet2_workload(4096, task="semantic_segmentation")
        assert workload.num_gather_groups == 4096 // 4 + 4096 // 16


class TestSyntheticDataStructuring:
    def test_bruteforce_scales_quadratically(self):
        small = synthetic_data_structuring_counters(1024, 256, 32, "bruteforce")
        large = synthetic_data_structuring_counters(4096, 1024, 32, "bruteforce")
        assert large.distance_computations > 10 * small.distance_computations

    def test_veg_independent_of_input_size(self):
        small = synthetic_data_structuring_counters(1024, 256, 32, "veg")
        large = synthetic_data_structuring_counters(16384, 256, 32, "veg")
        assert large.distance_computations == small.distance_computations

    def test_veg_much_cheaper_than_bruteforce(self):
        bf = synthetic_data_structuring_counters(16384, 4096, 32, "bruteforce")
        veg = synthetic_data_structuring_counters(16384, 4096, 32, "veg")
        assert veg.compare_ops < bf.compare_ops / 50

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            synthetic_data_structuring_counters(1024, 256, 32, "magic")
