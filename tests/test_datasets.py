"""Unit tests for the synthetic datasets and the LiDAR sensor model."""

import numpy as np
import pytest

from repro.datasets import (
    KittiLikeDataset,
    LidarSensorModel,
    ModelNetLikeDataset,
    S3DISLikeDataset,
    ShapeNetLikeDataset,
    TABLE1_BENCHMARKS,
    get_benchmark,
)
from repro.datasets.synthetic import indoor_room, lidar_scene, sample_cad_shape
from repro.octree.builder import Octree

from clouds import gaussian_clusters, uniform_cube


class TestTable1Registry:
    def test_four_benchmarks(self):
        assert set(TABLE1_BENCHMARKS) == {"modelnet40", "shapenet", "s3dis", "kitti"}

    def test_input_sizes_match_paper(self):
        assert get_benchmark("modelnet40").input_size == 1024
        assert get_benchmark("shapenet").input_size == 2048
        assert get_benchmark("s3dis").input_size == 4096
        assert get_benchmark("kitti").input_size == 16384

    def test_models_match_paper(self):
        assert get_benchmark("modelnet40").model == "Pointnet++(c)"
        assert get_benchmark("kitti").model == "Pointnet++(s)"

    def test_case_insensitive_lookup(self):
        assert get_benchmark("KITTI").name == "KITTI"

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_benchmark("nuscenes")


class TestGenerators:
    def test_uniform_cube_extent(self):
        cloud = uniform_cube(500, extent=2.0, seed=0)
        assert cloud.num_points == 500
        assert np.abs(cloud.points).max() <= 1.0

    def test_gaussian_clusters_count(self):
        assert gaussian_clusters(321, seed=1).num_points == 321

    def test_cad_shape_counts_and_noise(self):
        cloud = sample_cad_shape(700, shape="cylinder", seed=2)
        assert cloud.num_points == 700

    def test_cad_non_uniformity_increases_octree_imbalance(self):
        uniform = sample_cad_shape(2000, shape="sphere", non_uniformity=0.0, seed=3)
        skewed = sample_cad_shape(2000, shape="sphere", non_uniformity=0.8, seed=3)
        assert (
            Octree.build(skewed, 4).non_uniformity()
            > Octree.build(uniform, 4).non_uniformity()
        )

    def test_cad_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_cad_shape(100, shape="torus")
        with pytest.raises(ValueError):
            sample_cad_shape(100, non_uniformity=1.5)

    def test_indoor_room_count(self):
        assert indoor_room(1500, seed=0).num_points == 1500

    def test_lidar_scene_has_intensity_and_count(self):
        cloud = lidar_scene(2500, seed=0)
        assert cloud.num_points == 2500
        assert cloud.num_feature_channels == 1


class TestDatasetClasses:
    @pytest.mark.parametrize(
        "dataset_cls,key",
        [
            (ModelNetLikeDataset, "modelnet40"),
            (ShapeNetLikeDataset, "shapenet"),
            (S3DISLikeDataset, "s3dis"),
            (KittiLikeDataset, "kitti"),
        ],
    )
    def test_frames_generated_with_spec(self, dataset_cls, key):
        dataset = dataset_cls(num_frames=2, seed=0, scale=0.01)
        assert dataset.spec is get_benchmark(key)
        frames = dataset.frames()
        assert len(frames) == 2
        for frame in frames:
            assert frame.num_points >= 64
            assert frame.frame_id

    def test_frames_deterministic(self):
        a = ModelNetLikeDataset(num_frames=1, seed=5, scale=0.005).generate_frame(0)
        b = ModelNetLikeDataset(num_frames=1, seed=5, scale=0.005).generate_frame(0)
        assert np.allclose(a.cloud.points, b.cloud.points)

    def test_scale_controls_size(self):
        small = ModelNetLikeDataset(num_frames=1, seed=0, scale=0.002).generate_frame(0)
        large = ModelNetLikeDataset(num_frames=1, seed=0, scale=0.01).generate_frame(0)
        assert large.num_points > small.num_points

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            ModelNetLikeDataset(num_frames=2, scale=0.002).generate_frame(5)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            KittiLikeDataset(num_frames=1, scale=0.0)

    def test_kitti_timestamps_at_sensor_rate(self):
        dataset = KittiLikeDataset(num_frames=6, seed=0, scale=0.002)
        timestamps = np.array([frame.timestamp for frame in dataset])
        rate = 1.0 / np.diff(timestamps).mean()
        assert 7.0 < rate < 13.0  # nominal 10 Hz with jitter

    def test_modelnet_category_profiles(self):
        dataset = ModelNetLikeDataset(
            num_frames=2, seed=0, scale=0.005, categories=["piano", "plant"]
        )
        piano = dataset.generate_frame(0)
        plant = dataset.generate_frame(1)
        assert "piano" in piano.frame_id and "plant" in plant.frame_id
        # Piano-like categories are more non-uniform than plant-like ones
        # (the Figure 11 observation).
        assert (
            Octree.build(piano.cloud, 5).non_uniformity()
            > Octree.build(plant.cloud, 5).non_uniformity()
        )


class TestLidarSensorModel:
    def test_arrival_times_monotone(self):
        times = LidarSensorModel(frame_rate_hz=10).arrival_times(20)
        assert (np.diff(times) >= 0).all()

    def test_fast_service_keeps_up(self):
        sensor = LidarSensorModel(frame_rate_hz=10, seed=0)
        trace = sensor.simulate_service([0.05] * 20)  # 50 ms per 100 ms frame
        assert trace.keeps_up()
        assert trace.achieved_fps() >= 9.0

    def test_slow_service_falls_behind(self):
        sensor = LidarSensorModel(frame_rate_hz=10, seed=0)
        trace = sensor.simulate_service([0.25] * 20)  # 250 ms per 100 ms frame
        assert not trace.keeps_up()
        assert trace.max_backlog() > 1

    def test_mean_latency_includes_queueing(self):
        sensor = LidarSensorModel(frame_rate_hz=10, seed=0)
        slow = sensor.simulate_service([0.25] * 10)
        fast = sensor.simulate_service([0.01] * 10)
        def mean_latency(trace):
            return (trace.completion_times - trace.arrival_times).mean()

        assert mean_latency(slow) > mean_latency(fast)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            LidarSensorModel(frame_rate_hz=0)
        with pytest.raises(ValueError):
            LidarSensorModel().arrival_times(0)
