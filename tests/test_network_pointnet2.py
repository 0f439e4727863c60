"""Unit tests for the PointNet++ models."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.datastructuring.veg import VoxelExpandedGatherer
from repro.geometry.pointcloud import PointCloud
from repro.network.pointnet2 import (
    PointNet2Classification,
    PointNet2Segmentation,
    SetAbstraction,
    build_model_for_task,
)


@pytest.fixture
def input_cloud(rng) -> PointCloud:
    return PointCloud(points=rng.uniform(-1, 1, size=(128, 3)))


class TestSetAbstraction:
    def test_output_shapes(self, input_cloud):
        sa = SetAbstraction("sa_t", num_centroids=32, neighbors=8, mlp_channels=[3, 16, 32])
        new_cloud, features, trace = sa(input_cloud, None)
        assert new_cloud.num_points == 32
        assert features.shape == (32, 32)
        assert trace.gather is not None
        assert trace.layers[0].mac_ops > 0

    def test_global_grouping(self, input_cloud):
        sa = SetAbstraction("sa_g", num_centroids=None, neighbors=1, mlp_channels=[3, 8, 16])
        new_cloud, features, trace = sa(input_cloud, None)
        assert new_cloud.num_points == 1
        assert features.shape == (1, 16)
        assert trace.gather is None

    def test_channel_mismatch_raises(self, input_cloud):
        sa = SetAbstraction("sa_bad", num_centroids=8, neighbors=4, mlp_channels=[10, 8])
        with pytest.raises(ValueError):
            sa(input_cloud, None)

    def test_with_features(self, rng):
        cloud = PointCloud(
            points=rng.uniform(size=(64, 3)), features=rng.normal(size=(64, 5))
        )
        sa = SetAbstraction("sa_f", num_centroids=16, neighbors=4, mlp_channels=[8, 16])
        _, features, _ = sa(cloud, cloud.features)
        assert features.shape == (16, 16)


class TestClassification:
    def test_forward_shapes_and_probabilities(self, input_cloud):
        model = PointNet2Classification(num_classes=10, input_size=128, neighbors=8)
        result = model.forward(input_cloud)
        assert result.logits.shape == (1, 10)
        assert np.allclose(result.probabilities().sum(), 1.0)
        assert 0 <= result.predicted_class()[0] < 10

    def test_trace_structure(self, input_cloud):
        model = PointNet2Classification(num_classes=5, input_size=128, neighbors=8)
        result = model.forward(input_cloud)
        assert len(result.sa_traces) == 3
        assert len(result.head_traces) == 3
        assert result.total_mac_ops() > 0

    def test_deterministic(self, input_cloud):
        model_a = PointNet2Classification(num_classes=5, input_size=128, neighbors=8)
        model_b = PointNet2Classification(num_classes=5, input_size=128, neighbors=8)
        assert np.allclose(
            model_a.forward(input_cloud).logits, model_b.forward(input_cloud).logits
        )

    def test_with_veg_gatherer(self, input_cloud):
        model = PointNet2Classification(
            num_classes=5,
            input_size=128,
            neighbors=8,
            gatherer=VoxelExpandedGatherer(seed=0),
        )
        result = model.forward(input_cloud)
        assert result.logits.shape == (1, 5)
        # The executed gather exposes VEG run statistics for the DSU model.
        assert "run_stats" in result.sa_traces[0].gather.info


class TestSegmentation:
    def test_per_point_logits(self, input_cloud):
        model = PointNet2Segmentation(num_classes=13, input_size=128, neighbors=8)
        result = model.forward(input_cloud)
        assert result.logits.shape == (128, 13)
        assert np.allclose(result.probabilities().sum(axis=-1), 1.0)

    def test_with_input_features(self, rng):
        cloud = PointCloud(
            points=rng.uniform(size=(96, 3)), features=rng.normal(size=(96, 1))
        )
        model = PointNet2Segmentation(
            num_classes=4, input_size=96, input_feature_channels=1, neighbors=8
        )
        result = model.forward(cloud)
        assert result.logits.shape == (96, 4)


class TestFactory:
    @pytest.mark.parametrize(
        "task,expected_type,classes",
        [
            ("classification", PointNet2Classification, 40),
            ("part_segmentation", PointNet2Segmentation, 50),
            ("semantic_segmentation", PointNet2Segmentation, 13),
        ],
    )
    def test_builds_table1_variants(self, task, expected_type, classes):
        model = build_model_for_task(task, input_size=256)
        assert isinstance(model, expected_type)
        assert model.num_classes == classes

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            build_model_for_task("detection", input_size=256)


_LOGITS_DIGEST = """
import hashlib
from repro.datasets.synthetic import sample_cad_shape
from repro.network.pointnet2 import build_model_for_task
model = build_model_for_task("classification", input_size=96, neighbors=8)
logits = model.forward(sample_cad_shape(96, seed=5)).logits
print(hashlib.sha1(logits.tobytes()).hexdigest())
"""


class TestWeightsAcrossInterpreters:
    def test_logits_do_not_depend_on_the_string_hash_seed(self):
        """Weights are seeded from a CRC of the layer name, so interpreters
        started with different ``PYTHONHASHSEED`` values (spawned workers,
        other hosts, two CI runs) produce the same logits."""
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            done = subprocess.run(
                [sys.executable, "-c", _LOGITS_DIGEST],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 40
        assert digests[0] == digests[1]
