"""Unit tests for the Data Structuring Unit pipeline model (Figure 8/16)."""

from typing import Optional

import numpy as np
import pytest

from repro.datastructuring.base import pick_random_centroids
from repro.datastructuring.veg import VEGRunStats, VoxelExpandedGatherer
from repro.hardware.bitonic import BitonicSorter
from repro.hardware.dsu import DSU_STAGES, DSUStageBreakdown, DataStructuringUnit


def make_run(
    count: int = 1,
    last_shell: int = 60,
    inner: int = 10,
    voxels: int = 27,
    sorted_candidates: Optional[int] = None,
) -> VEGRunStats:
    """``count`` centroids with identical statistics."""
    if sorted_candidates is None:
        sorted_candidates = last_shell

    def column(value: int) -> np.ndarray:
        return np.full(count, value, dtype=np.int64)

    return VEGRunStats(
        expansions=column(2),
        inner_points=column(inner),
        last_shell_points=column(last_shell),
        sorted_candidates=column(sorted_candidates),
        voxels_visited=column(voxels),
    )


class TestStageModel:
    def test_all_stages_present(self):
        dsu = DataStructuringUnit()
        cycles = dsu.breakdown_for_run(make_run(), neighbors=32).cycles
        assert set(cycles.keys()) == set(DSU_STAGES)
        assert all(c >= 1 for c in cycles.values())

    def test_sort_stage_dominates_for_large_shells(self):
        dsu = DataStructuringUnit()
        cycles = dsu.breakdown_for_run(make_run(last_shell=500), neighbors=32).cycles
        assert cycles["ST"] == max(cycles.values())

    def test_semi_approximate_sort_stage_trivial(self):
        dsu = DataStructuringUnit()
        run = make_run(sorted_candidates=0)
        assert dsu.breakdown_for_run(run, neighbors=32).cycles["ST"] == 1

    def test_breakdown_aggregates_centroids(self):
        dsu = DataStructuringUnit()
        breakdown = dsu.breakdown_for_run(make_run(count=10), neighbors=32)
        single = dsu.breakdown_for_run(make_run(), neighbors=32).cycles
        assert breakdown.cycles["ST"] == 10 * single["ST"]
        assert breakdown.total_cycles() == 10 * sum(single.values())

    def test_pipelined_cycles_bounded_by_total(self):
        dsu = DataStructuringUnit()
        breakdown = dsu.breakdown_for_run(make_run(count=50), neighbors=32)
        assert breakdown.pipelined_cycles(50) <= breakdown.total_cycles()
        assert breakdown.pipelined_cycles(50) >= max(breakdown.cycles.values())


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
        assert run.num_centroids == 100
        assert run.sorted_candidates[0] == int(round(2.5 * 32))

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

    def stage_cycles_for_centroid(self, row, neighbors):
        _expansions, inner, _last_shell, candidates, voxels = row
        if candidates > 0:
            distance = -(-candidates // self.distance_lanes)
            st = distance + self.sorter.cycles_to_sort(candidates)
        else:
            st = 1
        return {
            "FP": 1,
            "LV": self.octree_depth,
            "VE": max(1, -(-voxels // self.expansion_lanes)),
            "GP": max(1, -(-max(1, inner) // self.gather_lanes)),
            "ST": st,
            "BF": max(1, -(-neighbors // self.gather_lanes)),
        }

    def breakdown_for_run(self, run_stats, neighbors):
        totals = {stage: 0 for stage in DSU_STAGES}
        columns = (
            run_stats.expansions,
            run_stats.inner_points,
            run_stats.last_shell_points,
            run_stats.sorted_candidates,
            run_stats.voxels_visited,
        )
        for row in zip(*(column.tolist() for column in columns)):
            cycles = self.stage_cycles_for_centroid(row, neighbors)
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
            make_run(count=0), 32
        )
        assert breakdown.cycles == {stage: 0 for stage in DSU_STAGES}

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
