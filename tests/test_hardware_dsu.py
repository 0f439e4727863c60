"""Unit tests for the Data Structuring Unit pipeline model (Figure 8/16)."""

import numpy as np
import pytest

from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.veg import VEGRunStats, VEGStageStats, VoxelExpandedGatherer
from repro.hardware.bitonic import BitonicSorter
from repro.hardware.dsu import DSU_STAGES, DSUStageBreakdown, DataStructuringUnit


def make_stats(last_shell: int = 60, inner: int = 10, voxels: int = 27) -> VEGStageStats:
    return VEGStageStats(
        expansions=2,
        inner_points=inner,
        last_shell_points=last_shell,
        sorted_candidates=last_shell,
        voxels_visited=voxels,
    )


class TestStageModel:
    def test_all_stages_present(self):
        dsu = DataStructuringUnit()
        cycles = dsu.stage_cycles_for_centroid(make_stats(), neighbors=32)
        assert set(cycles.keys()) == set(DSU_STAGES)
        assert all(c >= 1 for c in cycles.values())

    def test_sort_stage_dominates_for_large_shells(self):
        dsu = DataStructuringUnit()
        cycles = dsu.stage_cycles_for_centroid(make_stats(last_shell=500), neighbors=32)
        assert cycles["ST"] == max(cycles.values())

    def test_semi_approximate_sort_stage_trivial(self):
        dsu = DataStructuringUnit()
        stats = make_stats()
        stats.sorted_candidates = 0
        cycles = dsu.stage_cycles_for_centroid(stats, neighbors=32)
        assert cycles["ST"] == 1

    def test_breakdown_aggregates_centroids(self):
        dsu = DataStructuringUnit()
        run = VEGRunStats.from_stats([make_stats()] * 10)
        breakdown = dsu.breakdown_for_run(run, neighbors=32)
        single = dsu.stage_cycles_for_centroid(make_stats(), neighbors=32)
        assert breakdown.cycles["ST"] == 10 * single["ST"]
        assert breakdown.total_cycles() == 10 * sum(single.values())

    def test_pipelined_cycles_bounded_by_total(self):
        dsu = DataStructuringUnit()
        run = VEGRunStats.from_stats([make_stats()] * 50)
        breakdown = dsu.breakdown_for_run(run, neighbors=32)
        assert breakdown.pipelined_cycles(50) <= breakdown.total_cycles()
        assert breakdown.pipelined_cycles(50) >= max(breakdown.cycles.values())

    def test_latency_breakdown_conversion(self):
        dsu = DataStructuringUnit()
        run = VEGRunStats.from_stats([make_stats()] * 5)
        breakdown = dsu.breakdown_for_run(run, neighbors=32)
        latency = breakdown.as_breakdown(frequency_hz=dsu.frequency_hz)
        assert latency.total_seconds() == pytest.approx(
            breakdown.total_cycles() / dsu.frequency_hz
        )


class TestRunLatency:
    def test_measured_stats_from_functional_veg(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 32, seed=0)
        result = VoxelExpandedGatherer(seed=0).gather(medium_cloud, centroids, 16)
        dsu = DataStructuringUnit()
        seconds = dsu.seconds_for_run(result.info["run_stats"], neighbors=16)
        assert seconds > 0
        assert seconds < 1.0  # 32 centroids should take well under a second

    def test_synthetic_stats_match_shape(self):
        dsu = DataStructuringUnit()
        run = dsu.synthetic_run_stats(num_centroids=100, neighbors=32)
        assert len(run.per_centroid) == 100
        assert run.per_centroid[0].sorted_candidates == int(round(2.5 * 32))

    def test_more_centroids_more_latency(self):
        dsu = DataStructuringUnit()
        small = dsu.synthetic_seconds(num_centroids=256, neighbors=32)
        large = dsu.synthetic_seconds(num_centroids=4096, neighbors=32)
        assert large > small

    def test_latency_independent_of_input_cloud_size(self):
        """The key VEG property: DSU latency depends on the shell statistics,
        not on the input point cloud size (unlike PointACC's full-range sort)."""
        dsu = DataStructuringUnit()
        a = dsu.synthetic_seconds(num_centroids=1024, neighbors=32, mean_last_shell=80)
        b = dsu.synthetic_seconds(num_centroids=1024, neighbors=32, mean_last_shell=80)
        assert a == b


class ScalarDSU(DataStructuringUnit):
    """The per-centroid spec summed in a python loop: what
    ``breakdown_for_run`` did before it priced the run from arrays."""

    def breakdown_for_run(self, run_stats, neighbors):
        totals = {stage: 0 for stage in DSU_STAGES}
        for stats in run_stats.per_centroid:
            cycles = self.stage_cycles_for_centroid(stats, neighbors)
            for stage in DSU_STAGES:
                totals[stage] += cycles[stage]
        return DSUStageBreakdown(cycles=totals)


class TestArrayPricing:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_stage_total_equals_the_scalar_spec(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 400))
        last_shell = rng.integers(0, 5000, count)
        run = VEGRunStats(
            expansions=rng.integers(0, 9, count),
            inner_points=rng.integers(0, 200, count),
            last_shell_points=last_shell,
            # a share of zeros: the semi-approximate variant sorts nothing
            sorted_candidates=np.where(rng.random(count) < 0.2, 0, last_shell),
            voxels_visited=rng.integers(0, 400, count),
        )
        lanes = dict(
            expansion_lanes=int(rng.integers(1, 9)),
            gather_lanes=int(rng.integers(1, 9)),
            distance_lanes=int(rng.integers(1, 9)),
            sorter=BitonicSorter(comparators=int(rng.integers(1, 33))),
            octree_depth=int(rng.integers(1, 10)),
        )
        neighbors = int(rng.integers(1, 65))
        got = DataStructuringUnit(**lanes).breakdown_for_run(run, neighbors)
        want = ScalarDSU(**lanes).breakdown_for_run(run, neighbors)
        assert got.cycles == want.cycles
        assert all(type(c) is int for c in got.cycles.values())

    def test_empty_run_prices_to_zero(self):
        breakdown = DataStructuringUnit().breakdown_for_run(
            VEGRunStats.from_stats([]), 32
        )
        assert breakdown.cycles == {stage: 0 for stage in DSU_STAGES}

    def test_per_centroid_is_a_view_of_the_columns(self, medium_cloud):
        centroids = pick_random_centroids(medium_cloud, 32, seed=0)
        run = VoxelExpandedGatherer(seed=0).gather(
            medium_cloud, centroids, 16
        ).info["run_stats"]
        assert run.num_centroids == len(run.per_centroid) == 32
        assert VEGRunStats.from_stats(run.per_centroid).per_centroid == run.per_centroid
        assert [s.voxels_visited for s in run.per_centroid] == run.voxels_visited.tolist()

    def test_modelled_inference_unchanged_to_the_last_bit(self):
        from repro import HgPCNConfig, Session
        from repro.accelerators.hgpcn import HgPCNInferenceAccelerator
        from repro.datasets.synthetic import sample_cad_shape

        cloud = sample_cad_shape(1024, seed=11)
        seconds = [
            Session(
                config=HgPCNConfig.for_task(256, neighbors=16),
                task="classification",
                accelerator=HgPCNInferenceAccelerator(dsu=dsu),
            )
            .run(cloud)
            .result.breakdown.seconds_for("inference")
            for dsu in (DataStructuringUnit(), ScalarDSU())
        ]
        assert seconds[0] == seconds[1] > 0
