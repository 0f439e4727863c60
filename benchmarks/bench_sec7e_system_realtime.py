"""Section VII-E: system-level real-time evaluation on KITTI.

Models the end-to-end HgPCN latency per KITTI-scale frame (octree build,
table transfer, OIS down-sampling, VEG + PointNet++ inference), queues a
frame sequence through the sensor's ~10 Hz arrival schedule, and checks the
paper's claim: the pipeline sustains >= 16 average frames per second, which
exceeds the KITTI data generation rate.  The functional measurement runs the
whole pipeline on scaled-down frames.
"""

from repro.analysis.figures import section7e_realtime
from repro.core.config import HgPCNConfig, InferenceEngineConfig, PreprocessingConfig
from repro.datasets import KittiLikeDataset
from repro.session import Session

from conftest import emit


def test_sec7e_modelled_realtime(benchmark):
    figure, report = benchmark(section7e_realtime)
    emit(figure.formatted())
    assert report.achieved_fps >= 16.0
    assert report.meets_realtime
    assert report.achieved_fps > report.sensor_rate_hz


def test_sec7e_functional_sequence(benchmark):
    """Functional pipeline over a short KITTI-like sequence."""
    dataset = KittiLikeDataset(num_frames=3, seed=0, scale=0.002)
    session = Session(
        config=HgPCNConfig(
            preprocessing=PreprocessingConfig(num_samples=256, seed=0),
            inference=InferenceEngineConfig(
                num_centroids=64, neighbors_per_centroid=16, seed=0
            ),
        ),
        task="semantic_segmentation",
    )
    result = benchmark.pedantic(
        lambda: session.run_sequence(dataset.frames()), rounds=1, iterations=1
    )
    emit(
        "Section VII-E (functional, scaled frames): modelled capacity "
        f"{result.achieved_fps():.1f} FPS, keeps up = {result.keeps_up_with_sensor()}"
    )
    assert result.keeps_up_with_sensor()
