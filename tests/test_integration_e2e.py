"""Integration tests: full pipelines across modules on every dataset style."""

import numpy as np
import pytest

from repro.core.config import HgPCNConfig, InferenceEngineConfig, PreprocessingConfig
from repro.datasets import (
    KittiLikeDataset,
    ModelNetLikeDataset,
    S3DISLikeDataset,
    ShapeNetLikeDataset,
)
from repro.datastructuring.knn import BruteForceKNN
from repro.datastructuring.veg import VoxelExpandedGatherer
from repro.network.pointnet2 import build_model_for_task
from repro.sampling.ois import OctreeIndexedSampler
from repro.session import Session


def small_config(num_samples: int = 192, neighbors: int = 12) -> HgPCNConfig:
    return HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=num_samples, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=max(8, num_samples // 4),
            neighbors_per_centroid=neighbors,
            seed=0,
        ),
    )


@pytest.mark.parametrize(
    "dataset_cls,task",
    [
        (ModelNetLikeDataset, "classification"),
        (ShapeNetLikeDataset, "part_segmentation"),
        (S3DISLikeDataset, "semantic_segmentation"),
        (KittiLikeDataset, "semantic_segmentation"),
    ],
)
def test_full_pipeline_on_every_benchmark_style(dataset_cls, task):
    """Raw frame -> octree -> OIS -> VEG-backed PointNet++ -> logits."""
    dataset = dataset_cls(num_frames=1, seed=0, scale=0.005)
    frame = dataset.generate_frame(0)
    result = Session(config=small_config(), task=task).run(frame).result

    sampled = result.preprocessing.sampled
    # The requested 192 samples, clamped to the frame size for tiny frames
    # (ShapeNet raw frames are already below the requested input size).
    assert sampled.num_points == min(192, frame.num_points)
    logits = result.inference.forward.logits
    if task == "classification":
        assert logits.shape[0] == 1
    else:
        assert logits.shape[0] == sampled.num_points
    assert np.isfinite(logits).all()
    assert result.total_seconds() > 0
    # The modelled pre-processing phase stays within the FPGA memory budget.
    assert result.preprocessing.onchip_megabits < 65.0


def test_veg_and_knn_backed_models_agree_on_workload_shape():
    """Swapping the gatherer changes the data structuring cost, not the
    network structure: layer MAC counts are identical."""
    from repro.network.workload import extract_workload

    dataset = ModelNetLikeDataset(num_frames=1, seed=1, scale=0.004)
    cloud = dataset.generate_frame(0).cloud
    sampled = OctreeIndexedSampler(seed=0).sample(cloud, 256).sampled

    knn_model = build_model_for_task(
        "classification", input_size=256, gatherer=BruteForceKNN(), neighbors=16, seed=0
    )
    veg_model = build_model_for_task(
        "classification",
        input_size=256,
        gatherer=VoxelExpandedGatherer(seed=0),
        neighbors=16,
        seed=0,
    )
    knn_workload = extract_workload(knn_model.forward(sampled))
    veg_workload = extract_workload(veg_model.forward(sampled))

    assert [l.mac_ops for l in knn_workload.layers] == [
        l.mac_ops for l in veg_workload.layers
    ]
    assert (
        veg_workload.data_structuring.compare_ops
        < knn_workload.data_structuring.compare_ops
    )


def test_sequence_processing_reports_realtime_verdict():
    dataset = KittiLikeDataset(num_frames=4, seed=2, scale=0.002)
    session = Session(config=small_config(num_samples=128, neighbors=8))
    sequence = session.run_sequence(dataset.frames())
    assert len(sequence.frame_results) == 4
    assert sequence.service_trace is not None
    # The modelled hardware latency is far below the 10 Hz frame period.
    assert sequence.keeps_up_with_sensor()


def test_octree_reuse_between_phases():
    """The octree built for pre-processing can be reused by VEG (amortisation
    noted in Section VII-B)."""
    from repro.geometry.voxelgrid import VoxelGrid
    from repro.octree.builder import Octree

    dataset = S3DISLikeDataset(num_frames=1, seed=0, scale=0.004)
    cloud = dataset.generate_frame(0).cloud
    octree = Octree.build(cloud, depth=5)
    sampler = OctreeIndexedSampler(octree_depth=5, seed=0)
    sampling = sampler.sample(cloud, 200, octree=octree)

    grid = VoxelGrid.build(sampling.sampled, depth=4)
    gatherer = VoxelExpandedGatherer(depth=4, seed=0)
    from repro.datastructuring.base import pick_random_centroids

    centroids = pick_random_centroids(sampling.sampled, 32, seed=0)
    result = gatherer.gather(sampling.sampled, centroids, 16, grid=grid)
    assert result.neighbor_indices.shape == (32, 16)
