"""Tests for the cross-frame pipelined mode of ``Session.run_sequence``."""

import pytest

from repro.core.config import HgPCNConfig, InferenceEngineConfig, PreprocessingConfig
from repro.datasets import KittiLikeDataset
from repro.datasets.lidar import LidarSensorModel
from repro.session import Session


@pytest.fixture
def session():
    config = HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=192, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=48, neighbors_per_centroid=12, seed=0
        ),
    )
    return Session(config=config, task="semantic_segmentation", response_cache_size=0)


@pytest.fixture
def frames():
    return KittiLikeDataset(num_frames=4, seed=1, scale=0.002).frames()


class TestPipelinedSequence:
    def test_pipelined_latency_not_worse(self, session, frames):
        serial = session.run_sequence(frames, pipelined=False)
        pipelined = session.run_sequence(frames, pipelined=True)
        assert pipelined.mean_frame_seconds() <= serial.mean_frame_seconds()
        assert pipelined.achieved_fps() >= serial.achieved_fps()

    def test_first_frame_pays_full_latency(self, session, frames):
        pipelined = session.run_sequence(frames, pipelined=True)
        latencies = pipelined.frame_latencies()
        first = pipelined.frame_results[0]
        assert latencies[0] == pytest.approx(first.total_seconds())
        # Steady-state frames are bounded by the slower of the two phases.
        for latency, result in zip(latencies[1:], pipelined.frame_results[1:]):
            assert latency == pytest.approx(
                max(result.preprocessing_seconds, result.inference_seconds)
            )

    def test_functional_outputs_identical(self, session, frames):
        serial = session.run_sequence(frames, pipelined=False)
        pipelined = session.run_sequence(frames, pipelined=True)
        for a, b in zip(serial.frame_results, pipelined.frame_results):
            assert (
                a.inference.forward.predicted_class()
                == b.inference.forward.predicted_class()
            ).all()

    def test_service_trace_uses_pipelined_latencies(self, session, frames):
        sensor = LidarSensorModel(frame_rate_hz=10.0, seed=0)
        pipelined = session.run_sequence(frames, sensor=sensor, pipelined=True)
        assert pipelined.service_trace is not None
        assert pipelined.pipelined
        assert pipelined.keeps_up_with_sensor()
