"""Unit tests for the session-based pipeline API (repro.session)."""

import re

import numpy as np
import pytest

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.core.pipeline import SequenceResult
from repro.datasets import KittiLikeDataset
from repro.datasets.synthetic import sample_cad_shape
from repro.geometry.pointcloud import PointCloud
from repro.serving import FrameServer
from repro.session import BatchResult, FrameRequest, FrameResponse, Session


def small_config(num_samples: int = 64) -> HgPCNConfig:
    return HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=num_samples, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=16, neighbors_per_centroid=8, seed=0
        ),
    )


def make_cloud(seed: int, points: int = 400):
    return sample_cad_shape(points, shape="box", non_uniformity=0.2, seed=seed)


class TestFrameRequest:
    def test_coerce_cloud(self):
        request = FrameRequest.coerce(make_cloud(0), index=7)
        assert request.frame_id == "frame0007"

    def test_coerce_frame(self):
        frame = KittiLikeDataset(num_frames=1, seed=0, scale=0.0005).generate_frame(0)
        request = FrameRequest.coerce(frame)
        assert request.frame_id == frame.frame_id
        assert request.timestamp == frame.timestamp

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            FrameRequest.coerce([1, 2, 3])

    def test_content_digest_tracks_content(self):
        a = FrameRequest(cloud=make_cloud(0))
        b = FrameRequest(cloud=make_cloud(0), frame_id="other-id")
        c = FrameRequest(cloud=make_cloud(1))
        assert a.content_digest() == b.content_digest()
        assert a.content_digest() != c.content_digest()


def malformed_cloud(defect: str) -> PointCloud:
    """A 64-point cloud carrying one input defect."""
    cloud = make_cloud(0, points=64)
    points, features = cloud.points.copy(), np.ones((64, 1))
    if defect == "nan":
        points[5, 1] = np.nan
    elif defect == "inf":
        points[7, 0] = -np.inf
    elif defect == "empty":
        points, features = points[:0], features[:0]
    elif defect == "nonfinite_feature":
        features[3, 0] = np.nan
    return PointCloud(points=points, features=features)


@pytest.mark.parametrize(
    "defect, message",
    [
        ("nan", "has a non-finite (NaN or inf) coordinate"),
        ("inf", "has a non-finite (NaN or inf) coordinate"),
        ("empty", "has no points"),
        ("nonfinite_feature", "has a non-finite (NaN or inf) feature"),
    ],
    ids=["nan", "inf", "empty", "nonfinite_feature"],
)
def test_malformed_frame_rejected_at_the_request_boundary(defect, message):
    """A malformed frame raises one ValueError naming the frame and the
    defect when its request is built -- through ``run_batch`` and through
    ``FrameServer.submit`` -- and the session and server stay usable."""
    cloud = malformed_cloud(defect)
    with pytest.raises(ValueError, match=f"frame 'bad' {re.escape(message)}"):
        FrameRequest(cloud=cloud, frame_id="bad")

    session = Session(config=small_config(), task="classification")
    with pytest.raises(ValueError, match=f"frame 'frame0000' {re.escape(message)}"):
        session.run_batch([cloud])
    assert session.frames_processed == 0
    assert len(session.run_batch([make_cloud(1)])) == 1

    with FrameServer(
        session_factory=lambda: Session(config=small_config(), task="classification"),
        num_workers=1,
    ) as server:
        with pytest.raises(ValueError, match=re.escape(message)):
            server.submit(cloud)
        response = server.submit(make_cloud(1)).result(timeout=60.0)
    assert response.predicted_labels().shape == (1,)
    assert server.metrics.snapshot()["requests"]["submitted"] == 1


class TestWarmState:
    def test_same_shape_reuses_cached_model_object(self):
        session = Session(config=small_config(), task="semantic_segmentation")
        first = session.run(make_cloud(1))
        state = session.inference_engine.warm_state(
            first.result.preprocessing.sampled.num_points,
            first.result.preprocessing.sampled.num_feature_channels,
        )
        model_before = state.model
        second = session.run(make_cloud(2))
        assert second.warm and not second.cached
        assert session.model_builds == 1
        # The very same constructed network object served both frames.
        assert state.model is model_before
        assert len(session.warm_keys()) == 1

    def test_warm_logits_identical_to_cold_runs(self):
        clouds = [make_cloud(1), make_cloud(2)]
        warm_session = Session(config=small_config(), task="semantic_segmentation")
        warm = [warm_session.run(cloud) for cloud in clouds]
        cold = [
            Session(config=small_config(), task="semantic_segmentation").run(cloud)
            for cloud in clouds
        ]
        assert warm_session.model_builds == 1
        for warm_response, cold_response in zip(warm, cold):
            np.testing.assert_array_equal(
                warm_response.result.inference.forward.logits,
                cold_response.result.inference.forward.logits,
            )

    def test_different_shapes_build_separate_models(self):
        session = Session(config=small_config(num_samples=64))
        session.run(make_cloud(1, points=400))   # sampled to 64
        session.run(make_cloud(2, points=40))    # sampled to 40
        assert session.model_builds == 2
        assert len(session.warm_keys()) == 2

    def test_execution_stores_workload_once(self):
        session = Session(config=small_config())
        execution = session.run(make_cloud(1)).result.inference
        assert execution.workload is not None
        counters = session.inference_engine.workload_counters(execution)
        assert counters is execution.workload.data_structuring


class TestResponseCache:
    def test_repeated_content_is_served_from_cache(self):
        session = Session(config=small_config())
        cloud = make_cloud(3)
        first = session.run(cloud, frame_id="a")
        again = session.run(cloud, frame_id="b")
        assert not first.cached and again.cached
        assert again.frame_id == "b"  # identity is rewritten per request
        np.testing.assert_array_equal(
            first.predicted_labels(), again.predicted_labels()
        )
        assert session.stats()["response_cache_hits"] == 1

    def test_cache_can_be_disabled(self):
        session = Session(config=small_config(), response_cache_size=0)
        cloud = make_cloud(3)
        session.run(cloud)
        assert not session.run(cloud).cached

    def test_cache_evicts_beyond_capacity(self):
        session = Session(config=small_config(), response_cache_size=2)
        clouds = [make_cloud(i) for i in range(3)]
        for cloud in clouds:
            session.run(cloud)
        assert session.stats()["response_cache_entries"] == 2
        assert not session.run(clouds[0]).cached  # evicted


class TestBatch:
    def test_batch_groups_same_shaped_frames(self):
        session = Session(config=small_config(num_samples=64))
        clouds = [
            make_cloud(1, points=400),
            make_cloud(2, points=40),
            make_cloud(3, points=400),
        ]
        batch = session.run_batch(clouds)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 3
        assert sorted(batch.groups.values()) == [1, 2]
        # Submission order is preserved despite grouped processing.
        sizes = [r.result.preprocessing.sampled.num_points for r in batch]
        assert sizes == [64, 40, 64]
        assert session.model_builds == 2

    @pytest.mark.parametrize(
        "task, num_classes",
        [("classification", 40), ("semantic_segmentation", 13)],
    )
    def test_degenerate_clouds_give_finite_logits(
        self, degenerate_clouds, task, num_classes
    ):
        clouds = list(degenerate_clouds.values())
        session = Session(config=small_config(), task=task)
        for cloud, response in zip(clouds, session.run_batch(clouds)):
            logits = response.result.inference.forward.logits
            sampled = response.result.preprocessing.sampled.num_points
            assert sampled == min(64, cloud.num_points)
            rows = 1 if task == "classification" else sampled
            assert logits.shape == (rows, num_classes)
            assert np.isfinite(logits).all()

    def test_batch_warm_fraction(self):
        session = Session(config=small_config())
        batch = session.run_batch([make_cloud(i) for i in range(4)])
        # First frame builds the model; the other three run warm.
        assert batch.warm_fraction() == pytest.approx(0.75)
        assert batch.total_seconds() > 0

    def test_run_sequence_returns_sequence_result(self):
        session = Session(config=small_config())
        dataset = KittiLikeDataset(num_frames=3, seed=0, scale=0.0005)
        sequence = session.run_sequence(dataset)
        assert isinstance(sequence, SequenceResult)
        assert len(sequence.frame_results) == 3
        # KITTI-like frames carry timestamps, so a sensor model is inferred.
        assert sequence.service_trace is not None


class TestPluggableComponents:
    @pytest.mark.parametrize("sampler", ["fps", "random", "voxelgrid"])
    def test_alternative_samplers(self, sampler):
        session = Session(
            config=small_config(), task="semantic_segmentation", sampler=sampler
        )
        response = session.run(make_cloud(1, points=200))
        assert response.result.preprocessing.sampling.method != ""
        assert response.result.preprocessing.sampled.num_points == 64

    @pytest.mark.parametrize("accelerator", ["hgpcn", "pointacc", "mesorasi"])
    def test_alternative_accelerators(self, accelerator):
        session = Session(
            config=small_config(), task="classification", accelerator=accelerator
        )
        response = session.run(make_cloud(1, points=200))
        assert response.total_seconds() > 0

    def test_unknown_sampler_raises_with_choices(self):
        session = Session(config=small_config(), sampler="definitely-unknown")
        with pytest.raises(KeyError, match="available sampler"):
            session.run(make_cloud(1))

    def test_unknown_accelerator_raises_at_construction(self):
        with pytest.raises(KeyError, match="available accelerator"):
            Session(config=small_config(), accelerator="definitely-unknown")


class TestFrameResponse:
    def test_response_accessors(self):
        session = Session(config=small_config(), task="semantic_segmentation")
        response = session.run(make_cloud(1), frame_id="frame-x")
        assert isinstance(response, FrameResponse)
        assert response.frame_id == "frame-x"
        assert response.total_seconds() == response.result.total_seconds()
        assert response.predicted_labels().shape[0] > 0
