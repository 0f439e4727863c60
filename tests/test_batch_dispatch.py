"""Tests for the batch-native execution path.

The contract under test is exact equivalence: the batch-native dispatch
(``Session.run_batch`` -> ``FrameBatch`` -> ``process_batch`` ->
``forward_batch``) must produce bit-identical results -- logits, gather
rows, sampled indices, stage counters, warm/cached flags, response-cache
behaviour -- to the frame-at-a-time path it replaces, at every layer of the
stack.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.core.engine import InferenceEngine, PreprocessingEngine
from repro.core.framebatch import FrameBatch
from repro.datasets.synthetic import sample_cad_shape
from repro.geometry.pointcloud import PointCloud
from repro.kernels import frame_offsets, stack_frames
from repro.network.pointnet2 import build_model_for_task
from repro.octree.builder import Octree
from repro.session import Session


def small_config(num_samples: int = 64) -> HgPCNConfig:
    return HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=num_samples, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=16, neighbors_per_centroid=8, seed=0
        ),
    )


def make_cloud(seed: int, points: int = 400, channels: int = 0):
    cloud = sample_cad_shape(points, shape="box", non_uniformity=0.2, seed=seed)
    if channels:
        rng = np.random.default_rng(seed)
        cloud = PointCloud(
            points=cloud.points, features=rng.uniform(size=(points, channels))
        )
    return cloud


def assert_traces_equal(got, expected):
    assert np.array_equal(got.logits, expected.logits)
    assert len(got.sa_traces) == len(expected.sa_traces)
    for trace_got, trace_expected in zip(got.sa_traces, expected.sa_traces):
        if trace_expected.gather is None:
            assert trace_got.gather is None
        else:
            assert np.array_equal(
                trace_got.gather.neighbor_indices,
                trace_expected.gather.neighbor_indices,
            )
            assert dataclasses.asdict(
                trace_got.gather.counters
            ) == dataclasses.asdict(trace_expected.gather.counters)
        assert [dataclasses.asdict(l) for l in trace_got.layers] == [
            dataclasses.asdict(l) for l in trace_expected.layers
        ]
    assert [dataclasses.asdict(l) for l in got.head_traces] == [
        dataclasses.asdict(l) for l in expected.head_traces
    ]


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
class TestBatchingKernels:
    def test_stack_frames_stacks_and_validates(self):
        arrays = [np.arange(6.0).reshape(2, 3) + i for i in range(4)]
        stacked = stack_frames(arrays)
        assert stacked.shape == (4, 2, 3)
        assert np.array_equal(stacked[2], arrays[2])
        with pytest.raises(ValueError):
            stack_frames([np.zeros((2, 3)), np.zeros((3, 3))])
        with pytest.raises(ValueError):
            stack_frames([])

    def test_frame_offsets(self):
        assert frame_offsets(4, 10).tolist() == [0, 10, 20, 30]
        assert frame_offsets(0, 5).tolist() == []
        with pytest.raises(ValueError):
            frame_offsets(-1, 5)


# ----------------------------------------------------------------------
# FrameBatch
# ----------------------------------------------------------------------
class TestFrameBatch:
    def test_from_clouds_stacks(self):
        clouds = [make_cloud(i, points=50, channels=2) for i in range(3)]
        batch = FrameBatch.from_clouds(clouds)
        assert len(batch) == 3
        assert batch.points.shape == (3, 50, 3)
        assert batch.features.shape == (3, 50, 2)
        assert batch.num_points == 50
        assert batch.num_feature_channels == 2
        assert batch.clouds[1] is clouds[1]
        assert np.array_equal(batch.points.reshape(-1, 3)[50:100], clouds[1].points)

    def test_from_clouds_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="points"):
            FrameBatch.from_clouds([make_cloud(0, 50), make_cloud(1, 60)])
        with pytest.raises(ValueError, match="feature"):
            FrameBatch.from_clouds(
                [make_cloud(0, 50, channels=2), make_cloud(1, 50)]
            )
        with pytest.raises(ValueError):
            FrameBatch.from_clouds([])


# ----------------------------------------------------------------------
# Batched octree construction
# ----------------------------------------------------------------------
class TestOctreeBuildBatch:
    def test_bit_identical_to_per_frame_build(self):
        clouds = [make_cloud(seed, points=700) for seed in range(4)]
        batched = Octree.build_batch(clouds, depth=6)
        for cloud, octree in zip(clouds, batched):
            solo = Octree.build(cloud, depth=6)
            assert np.array_equal(octree.leaf_codes, solo.leaf_codes)
            assert np.array_equal(octree.point_codes, solo.point_codes)
            assert np.array_equal(
                octree.points_in_sfc_order(), solo.points_in_sfc_order()
            )
            assert dataclasses.astuple(octree.stats) == dataclasses.astuple(
                solo.stats
            )
            assert np.array_equal(octree.box.minimum, solo.box.minimum)
            assert np.array_equal(octree.box.maximum, solo.box.maximum)

    def test_empty_batch_and_empty_cloud(self):
        assert Octree.build_batch([], depth=4) == []
        with pytest.raises(ValueError):
            Octree.build_batch([PointCloud(points=np.zeros((0, 3)))], depth=4)


# ----------------------------------------------------------------------
# Batched network forward
# ----------------------------------------------------------------------
class TestForwardBatch:
    @pytest.mark.parametrize(
        "task,points,channels",
        [
            ("classification", 128, 0),
            ("part_segmentation", 64, 2),
            ("semantic_segmentation", 96, 0),
            ("semantic_segmentation", 96, 4),
        ],
    )
    def test_bit_identical_to_sequential_forward(self, task, points, channels):
        clouds = [
            make_cloud(10 + i, points=points, channels=channels)
            for i in range(5)
        ]
        model = build_model_for_task(
            task,
            input_size=points,
            input_feature_channels=channels,
            neighbors=8,
            seed=0,
        )
        batched = model.forward_batch(FrameBatch.from_clouds(clouds))
        assert len(batched) == 5
        for cloud, result in zip(clouds, batched):
            solo = model.forward_batch(FrameBatch.from_clouds([cloud]))[0]
            assert_traces_equal(result, solo)

    def test_tiny_frames_fall_back_per_frame(self):
        # input_size 16 drives sa3's global group (and the classification
        # head) down to single-row operands, exercising the per-frame
        # fallback inside the stacked dispatch.
        clouds = [make_cloud(20 + i, points=16) for i in range(3)]
        model = build_model_for_task("classification", input_size=16, seed=0)
        batched = model.forward_batch(FrameBatch.from_clouds(clouds))
        for cloud, result in zip(clouds, batched):
            solo = model.forward_batch(FrameBatch.from_clouds([cloud]))[0]
            assert_traces_equal(result, solo)


# ----------------------------------------------------------------------
# Batched engines
# ----------------------------------------------------------------------
class TestEngineProcessBatch:
    def test_preprocessing_batch_bit_identical(self):
        engine_batched = PreprocessingEngine(config=small_config())
        engine_solo = PreprocessingEngine(config=small_config())
        clouds = [make_cloud(i, points=300) for i in range(3)]
        batched = engine_batched.process_batch(FrameBatch.from_clouds(clouds))
        for cloud, result in zip(clouds, batched):
            solo = engine_solo.process(cloud)
            assert np.array_equal(
                result.sampling.indices, solo.sampling.indices
            )
            assert dataclasses.asdict(
                result.sampling.counters
            ) == dataclasses.asdict(solo.sampling.counters)
            assert np.array_equal(
                result.sampled.points, solo.sampled.points
            )
            assert result.breakdown.as_dict() == solo.breakdown.as_dict()
            assert result.onchip_megabits == solo.onchip_megabits
            assert len(result.octree_table) == len(solo.octree_table)

    def test_inference_batch_bit_identical_and_warm_flags(self):
        config = small_config()
        engine_batched = InferenceEngine(config=config, task="semantic_segmentation")
        engine_solo = InferenceEngine(config=config, task="semantic_segmentation")
        clouds = [make_cloud(i, points=64) for i in range(4)]
        batched = engine_batched.process_batch(FrameBatch.from_clouds(clouds))
        assert [execution.warm for execution in batched] == [
            False, True, True, True,
        ]
        assert engine_batched.model_builds == 1
        for cloud, execution in zip(clouds, batched):
            solo = engine_solo.process(cloud)
            assert_traces_equal(execution.forward, solo.forward)
            assert execution.breakdown.as_dict() == solo.breakdown.as_dict()
            assert (
                execution.workload.data_structuring
                == solo.workload.data_structuring
            )

    def test_second_inference_batch_runs_fully_warm(self):
        engine = InferenceEngine(config=small_config(), task="semantic_segmentation")
        clouds = [make_cloud(i, points=64) for i in range(2)]
        engine.process_batch(FrameBatch.from_clouds(clouds))
        again = engine.process_batch(FrameBatch.from_clouds(clouds))
        assert all(execution.warm for execution in again)
        assert engine.model_builds == 1


# ----------------------------------------------------------------------
# Session batch-native dispatch
# ----------------------------------------------------------------------
def batch_snapshot(batch):
    snapshot = []
    for response in batch.responses:
        forward = response.result.inference.forward
        snapshot.append(
            {
                "frame_id": response.result.frame_id,
                "logits": forward.logits,
                "sampled": response.result.preprocessing.sampling.indices,
                "gather_rows": [
                    trace.gather.neighbor_indices
                    for trace in forward.sa_traces
                    if trace.gather is not None
                ],
                "workload": dataclasses.asdict(
                    response.result.inference.workload.data_structuring
                ),
                "breakdown": response.result.breakdown.as_dict(),
                "warm": response.warm,
                "cached": response.cached,
            }
        )
    return snapshot


def assert_snapshots_equal(got, expected):
    assert len(got) == len(expected)
    for frame_got, frame_expected in zip(got, expected):
        for key in frame_expected:
            value_got, value_expected = frame_got[key], frame_expected[key]
            if isinstance(value_expected, np.ndarray):
                assert np.array_equal(value_got, value_expected), key
            elif isinstance(value_expected, list) and value_expected and isinstance(
                value_expected[0], np.ndarray
            ):
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(value_got, value_expected)
                ), key
            else:
                assert value_got == value_expected, key


class TestSessionBatchedDispatch:
    def run_both(self, frames, cache=8, **session_kwargs):
        batched_session = Session(
            config=small_config(), task="semantic_segmentation",
            response_cache_size=cache, **session_kwargs,
        )
        sequential_session = Session(
            config=small_config(), task="semantic_segmentation",
            response_cache_size=cache,
        )
        batched = batched_session.run_batch(frames)
        sequential = sequential_session.run_batch(frames, batch_size=1)
        return batched_session, sequential_session, batched, sequential

    def test_same_shape_batch_bit_identical(self):
        frames = [make_cloud(i) for i in range(5)]
        s_batched, s_sequential, batched, sequential = self.run_both(frames)
        assert_snapshots_equal(batch_snapshot(batched), batch_snapshot(sequential))
        assert batched.groups == sequential.groups
        assert s_batched.stats() == s_sequential.stats()
        assert s_batched.model_builds == 1

    def test_mixed_shape_batch_bit_identical(self):
        frames = [
            make_cloud(1, 400), make_cloud(2, 40), make_cloud(3, 400),
            make_cloud(4, 500), make_cloud(5, 40),
        ]
        s_batched, s_sequential, batched, sequential = self.run_both(frames)
        assert_snapshots_equal(batch_snapshot(batched), batch_snapshot(sequential))
        # Submission order survives the grouped, sub-batched dispatch.
        sizes = [
            r.result.preprocessing.sampled.num_points for r in batched
        ]
        assert sizes == [64, 40, 64, 64, 40]

    def test_groups_keep_first_seen_order(self):
        frames = [
            make_cloud(0, 400), make_cloud(1, 40), make_cloud(2, 400),
            make_cloud(3, 400, channels=1),
        ]
        session = Session(config=small_config(), task="semantic_segmentation")
        result = session.run_batch(frames)
        assert list(result.groups.items()) == [
            (("semantic_segmentation", 64, 0), 2),
            (("semantic_segmentation", 40, 0), 1),
            (("semantic_segmentation", 64, 1), 1),
        ]
        # Responses come back in submission order, not group order.
        assert [r.result.preprocessing.sampled.num_points for r in result] == [
            64, 40, 64, 64,
        ]
        assert [
            r.result.preprocessing.sampled.num_feature_channels for r in result
        ] == [0, 0, 0, 1]

    def test_sub_batching_budget_is_result_invariant(self):
        frames = [make_cloud(i) for i in range(6)]
        reference = None
        for budget in (1, 64, 128, 10_000):
            session = Session(
                config=small_config(), task="semantic_segmentation",
                response_cache_size=0,
            )
            session.batch_rows_budget = budget
            snapshot = batch_snapshot(session.run_batch(frames))
            if reference is None:
                reference = snapshot
            else:
                assert_snapshots_equal(snapshot, reference)

    def test_duplicates_served_from_cache(self):
        frames = [make_cloud(1), make_cloud(1), make_cloud(2), make_cloud(1)]
        s_batched, s_sequential, batched, sequential = self.run_both(frames)
        assert_snapshots_equal(batch_snapshot(batched), batch_snapshot(sequential))
        assert [r.cached for r in batched] == [False, True, False, True]
        assert s_batched.cache_hits == 2

    def test_lru_ordering_matches_sequential_under_eviction(self):
        # Capacity 2: the duplicate's first entry is evicted mid-batch, so
        # the sequential path recomputes it -- the batched plan must too.
        frames = [make_cloud(1), make_cloud(2), make_cloud(3), make_cloud(1)]
        s_batched, s_sequential, batched, sequential = self.run_both(
            frames, cache=2
        )
        assert_snapshots_equal(batch_snapshot(batched), batch_snapshot(sequential))
        assert [r.cached for r in batched] == [False, False, False, False]
        assert list(s_batched._response_cache.keys()) == list(
            s_sequential._response_cache.keys()
        )

    def test_lru_ordering_under_mixed_shape_batches(self):
        frames = [
            make_cloud(1, 400), make_cloud(2, 40), make_cloud(1, 400),
            make_cloud(3, 400), make_cloud(2, 40),
        ]
        s_batched, s_sequential, batched, sequential = self.run_both(
            frames, cache=3
        )
        assert_snapshots_equal(batch_snapshot(batched), batch_snapshot(sequential))
        assert list(s_batched._response_cache.keys()) == list(
            s_sequential._response_cache.keys()
        )
        assert s_batched.stats() == s_sequential.stats()

    def test_cache_disabled_recomputes_duplicates(self):
        frames = [make_cloud(1), make_cloud(1)]
        s_batched, _, batched, sequential = self.run_both(frames, cache=0)
        assert_snapshots_equal(batch_snapshot(batched), batch_snapshot(sequential))
        assert [r.cached for r in batched] == [False, False]

    def test_run_sequence_coerces_exactly_once(self, monkeypatch):
        from repro.session import FrameRequest

        calls = []
        original = FrameRequest.coerce.__func__

        def counting_coerce(cls, obj, index=0):
            calls.append(index)
            return original(cls, obj, index)

        monkeypatch.setattr(
            FrameRequest, "coerce", classmethod(counting_coerce)
        )
        session = Session(config=small_config(), task="semantic_segmentation")
        session.run_sequence([make_cloud(i) for i in range(3)])
        # One coercion per frame, offset by frames_processed -- no re-wrap.
        assert calls == [0, 1, 2]
        sequence = session.run_sequence([make_cloud(9)])
        assert calls == [0, 1, 2, 3]
        assert len(sequence.frame_results) == 1

    def test_run_sequence_still_infers_sensor_from_timestamps(self):
        from repro.datasets import KittiLikeDataset

        session = Session(config=small_config(), task="semantic_segmentation")
        dataset = KittiLikeDataset(num_frames=3, seed=0, scale=0.0005)
        sequence = session.run_sequence(dataset)
        assert sequence.service_trace is not None
        assert len(sequence.frame_results) == 3


# ----------------------------------------------------------------------
# CLI serving mode
# ----------------------------------------------------------------------
class TestCLIBatchSize:
    def test_e2e_batch_size_flag(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "e2e", "--dataset", "shapenet", "--scale", "0.02",
                "--samples", "32", "--neighbors", "4", "--frames", "4",
                "--batch-size", "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 batch(es)" in out
        assert "batched dispatch" in out
