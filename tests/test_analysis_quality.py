"""Unit tests for the sampling-quality metrics (repro.analysis.quality)."""

import pytest

from repro.analysis.quality import (
    SamplingQuality,
    compare_samplers,
    evaluate_sampling,
    quality_table_rows,
)
from repro.sampling.fps import FarthestPointSampler
from repro.sampling.ois import OctreeIndexedSampler
from repro.sampling.random_sampling import RandomSampler


class TestEvaluateSampling:
    def test_metrics_well_formed(self, cad_cloud):
        result = FarthestPointSampler(seed=0).sample(cad_cloud, 64)
        quality = evaluate_sampling(cad_cloud, result)
        assert quality.coverage_radius >= quality.chamfer_distance >= 0
        assert 0 <= quality.voxel_occupancy_recall <= 1
        assert quality.num_samples == 64

    def test_full_sampling_is_perfect(self, small_cloud):
        result = RandomSampler(seed=0).sample(small_cloud, small_cloud.num_points)
        quality = evaluate_sampling(small_cloud, result)
        assert quality.coverage_radius == pytest.approx(0.0)
        assert quality.voxel_occupancy_recall == pytest.approx(1.0)

    def test_explicit_depth_respected(self, cad_cloud):
        result = RandomSampler(seed=0).sample(cad_cloud, 64)
        coarse = evaluate_sampling(cad_cloud, result, occupancy_depth=2)
        fine = evaluate_sampling(cad_cloud, result, occupancy_depth=6)
        assert coarse.voxel_occupancy_recall >= fine.voxel_occupancy_recall


class TestCompareSamplers:
    def test_fps_beats_random_on_coverage(self, cad_cloud):
        qualities = compare_samplers(
            cad_cloud,
            {"fps": FarthestPointSampler(seed=0), "random": RandomSampler(seed=0)},
            num_samples=64,
        )
        assert (
            qualities["fps"].coverage_radius < qualities["random"].coverage_radius
        )

    def test_ois_occupancy_recall_at_least_random(self, cad_cloud):
        """The paper's quality claim, in geometric terms: OIS preserves the
        spatial structure at least as well as random sampling."""
        qualities = compare_samplers(
            cad_cloud,
            {"ois": OctreeIndexedSampler(seed=0), "random": RandomSampler(seed=0)},
            num_samples=64,
        )
        assert (
            qualities["ois"].voxel_occupancy_recall
            >= qualities["random"].voxel_occupancy_recall
        )

    def test_rows_helper(self, cad_cloud):
        qualities = compare_samplers(
            cad_cloud, {"random": RandomSampler(seed=0)}, num_samples=32
        )
        rows = quality_table_rows(qualities)
        assert rows[0][0] == "random"
        assert len(rows[0]) == 4

    def test_invalid_sample_count(self, cad_cloud):
        with pytest.raises(ValueError):
            compare_samplers(cad_cloud, {"random": RandomSampler()}, num_samples=0)
