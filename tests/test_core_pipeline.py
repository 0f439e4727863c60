"""Unit tests for the end-to-end pipeline: ``Session.run`` and ``run_sequence``."""

import pytest

from repro.core.config import HgPCNConfig, InferenceEngineConfig, PreprocessingConfig
from repro.datasets import KittiLikeDataset
from repro.datasets.lidar import LidarSensorModel
from repro.session import Session


@pytest.fixture
def session():
    config = HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=256, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=64, neighbors_per_centroid=16, seed=0
        ),
    )
    return Session(config=config, task="semantic_segmentation")


@pytest.fixture
def dataset():
    return KittiLikeDataset(num_frames=3, seed=0, scale=0.003)


class TestSingleFrame:
    def test_process_frame_structure(self, session, dataset):
        result = session.run(dataset.generate_frame(0)).result
        assert result.frame_id.startswith("kitti")
        assert result.preprocessing.sampled.num_points == 256
        assert result.inference.forward.logits.shape[0] == 256
        assert result.total_seconds() == pytest.approx(
            result.preprocessing_seconds + result.inference_seconds
        )

    def test_breakdown_phases(self, session, dataset):
        result = session.run(dataset.generate_frame(0)).result
        phases = result.breakdown.as_dict()
        assert set(phases) == {"preprocessing", "inference"}
        assert all(v > 0 for v in phases.values())

    def test_process_cloud_alias(self, session, dataset):
        cloud = dataset.generate_frame(1).cloud
        result = session.run(cloud, frame_id="manual").result
        assert result.frame_id == "manual"


class TestSequence:
    def test_sequence_results_per_frame(self, session, dataset):
        result = session.run_sequence(dataset.frames())
        assert len(result.frame_results) == 3
        assert result.mean_frame_seconds() > 0
        assert result.achieved_fps() > 0

    def test_sensor_trace_attached_from_timestamps(self, session, dataset):
        result = session.run_sequence(dataset.frames())
        assert result.service_trace is not None
        assert result.service_trace.num_frames == 3

    def test_explicit_sensor(self, session, dataset):
        sensor = LidarSensorModel(frame_rate_hz=5.0, seed=0)
        result = session.run_sequence(dataset.frames(), sensor=sensor)
        assert result.service_trace.sensor_rate_hz == 5.0

    def test_modeled_latency_keeps_up_with_slow_sensor(self, session, dataset):
        # The modelled per-frame latency is tens of milliseconds; a 2 Hz
        # sensor is easily satisfied.
        sensor = LidarSensorModel(frame_rate_hz=2.0, seed=0)
        result = session.run_sequence(dataset.frames(), sensor=sensor)
        assert result.keeps_up_with_sensor()


class TestConfigurationVariants:
    def test_classification_task(self, dataset):
        config = HgPCNConfig(
            preprocessing=PreprocessingConfig(num_samples=128, seed=0),
            inference=InferenceEngineConfig(
                num_centroids=32, neighbors_per_centroid=8, seed=0
            ),
        )
        session = Session(config=config, task="classification")
        result = session.run(dataset.generate_frame(0)).result
        assert result.inference.forward.logits.shape == (1, 40)

    def test_approximate_ois_variant(self, dataset):
        config = HgPCNConfig(
            preprocessing=PreprocessingConfig(num_samples=128, approximate=True, seed=0),
            inference=InferenceEngineConfig(
                num_centroids=32, neighbors_per_centroid=8, seed=0
            ),
        )
        session = Session(config=config, task="classification")
        result = session.run(dataset.generate_frame(0)).result
        assert result.preprocessing.sampling.info["approximate"] is True

    def test_semi_approximate_veg_variant(self, dataset):
        config = HgPCNConfig(
            preprocessing=PreprocessingConfig(num_samples=128, seed=0),
            inference=InferenceEngineConfig(
                num_centroids=32,
                neighbors_per_centroid=8,
                semi_approximate=True,
                seed=0,
            ),
        )
        session = Session(config=config, task="classification")
        result = session.run(dataset.generate_frame(0)).result
        assert result.inference.forward.logits.shape == (1, 40)
