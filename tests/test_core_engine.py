"""Unit tests for the Pre-processing and Inference engines."""

import numpy as np
import pytest

from repro.core.config import HgPCNConfig, InferenceEngineConfig, PreprocessingConfig
from repro.core.engine import InferenceEngine, PreprocessingEngine
from repro.datasets.synthetic import lidar_scene


@pytest.fixture
def raw_cloud():
    return lidar_scene(4000, num_objects=6, seed=11)


@pytest.fixture
def config():
    return HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=256, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=64, neighbors_per_centroid=16, seed=0
        ),
    )


class TestPreprocessingEngine:
    def test_produces_requested_sample_count(self, raw_cloud, config):
        engine = PreprocessingEngine(config=config)
        result = engine.process(raw_cloud)
        assert result.sampled.num_points == 256
        assert result.sampling.num_samples == 256

    def test_breakdown_phases(self, raw_cloud, config):
        result = PreprocessingEngine(config=config).process(raw_cloud)
        phases = result.breakdown.as_dict()
        assert set(phases) == {"octree_build", "table_transfer", "downsampling"}
        assert result.total_seconds() > 0

    def test_onchip_footprint_within_budget(self, raw_cloud, config):
        result = PreprocessingEngine(config=config).process(raw_cloud)
        assert 0 < result.onchip_megabits < config.system.onchip_memory_megabits

    def test_octree_and_table_consistent(self, raw_cloud, config):
        result = PreprocessingEngine(config=config).process(raw_cloud)
        assert len(result.octree_table) == result.octree.num_nodes

    def test_requested_samples_clamped_to_cloud(self, config):
        tiny = lidar_scene(100, seed=0)
        result = PreprocessingEngine(config=config).process(tiny)
        assert result.sampled.num_points == 100

    def test_sampled_points_are_subset_of_input(self, raw_cloud, config):
        result = PreprocessingEngine(config=config).process(raw_cloud)
        # Every sampled point exists in the raw cloud.
        raw_set = {tuple(np.round(p, 9)) for p in raw_cloud.points}
        for p in result.sampled.points:
            assert tuple(np.round(p, 9)) in raw_set


class TestInferenceEngine:
    def test_classification_output(self, raw_cloud, config):
        sampled = PreprocessingEngine(config=config).process(raw_cloud).sampled
        engine = InferenceEngine(config=config, task="classification")
        execution = engine.process(sampled)
        assert execution.forward.logits.shape == (1, 40)
        assert execution.total_seconds() > 0

    def test_segmentation_output(self, raw_cloud, config):
        sampled = PreprocessingEngine(config=config).process(raw_cloud).sampled
        engine = InferenceEngine(config=config, task="semantic_segmentation")
        execution = engine.process(sampled)
        assert execution.forward.logits.shape == (sampled.num_points, 13)
        assert execution.predicted_labels().shape == (sampled.num_points,)

    def test_veg_stats_feed_the_dsu_model(self, raw_cloud, config):
        sampled = PreprocessingEngine(config=config).process(raw_cloud).sampled
        execution = InferenceEngine(config=config, task="classification").process(sampled)
        assert "sa1" in execution.gather_run_stats

    def test_breakdown_has_both_phases(self, raw_cloud, config):
        sampled = PreprocessingEngine(config=config).process(raw_cloud).sampled
        execution = InferenceEngine(config=config, task="classification").process(sampled)
        assert execution.breakdown.seconds_for("data_structuring") > 0
        assert execution.breakdown.seconds_for("feature_computation") > 0

    def test_workload_counters(self, raw_cloud, config):
        engine = InferenceEngine(config=config, task="classification")
        sampled = PreprocessingEngine(config=config).process(raw_cloud).sampled
        execution = engine.process(sampled)
        counters = execution.workload.data_structuring
        assert counters.distance_computations > 0
