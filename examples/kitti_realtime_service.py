#!/usr/bin/env python3
"""KITTI-style real-time edge service (the Section VII-E scenario).

A LiDAR sensor generates frames at ~10 Hz; the end-to-end HgPCN pipeline
must keep up with that rate.  This example:

* processes a short KITTI-like sequence functionally (scaled-down frames);
* models the per-frame latency at paper scale (million-point raw frames);
* queues the modelled latencies through the sensor's arrival schedule and
  reports whether the service meets the real-time requirement, compared
  against a CPU baseline running FPS pre-processing.
"""

from repro.accelerators import HgPCNInferenceAccelerator, InferenceWorkloadSpec
from repro.accelerators.cpu import CPUExecutor
from repro.analysis.realtime import evaluate_realtime
from repro.core.config import HgPCNConfig, InferenceEngineConfig, PreprocessingConfig
from repro.datasets import KittiLikeDataset, get_benchmark
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.octree_build_unit import OctreeBuildUnit
from repro.hardware.sampling_module import DownSamplingUnit
from repro.session import Session


def functional_sequence() -> None:
    print("== functional pipeline on a scaled-down sequence ==")
    dataset = KittiLikeDataset(num_frames=4, seed=0, scale=0.003)
    session = Session(
        config=HgPCNConfig(
            preprocessing=PreprocessingConfig(num_samples=512, seed=0),
            inference=InferenceEngineConfig(
                num_centroids=128, neighbors_per_centroid=16, seed=0
            ),
        ),
        task="semantic_segmentation",
    )
    sequence = session.run_sequence(dataset.frames())
    for result in sequence.frame_results:
        print(
            f"  {result.frame_id}: pre {result.preprocessing_seconds * 1e3:.2f} ms, "
            f"inference {result.inference_seconds * 1e3:.2f} ms"
        )
    print(f"  modelled capacity: {sequence.achieved_fps():.1f} frames/s, "
          f"keeps up with sensor: {sequence.keeps_up_with_sensor()}")


def paper_scale_model(sensor_rate_hz: float = 10.0, num_frames: int = 64) -> None:
    print("\n== modelled paper-scale service (million-point frames) ==")
    spec = get_benchmark("kitti")
    depth = 9

    build = OctreeBuildUnit()
    downsampling = DownSamplingUnit()
    link = InterconnectModel()
    inference = HgPCNInferenceAccelerator().inference_seconds(
        InferenceWorkloadSpec.from_benchmark("kitti")
    )

    import numpy as np

    rng = np.random.default_rng(1)
    hgpcn_latencies, cpu_latencies = [], []
    cpu = CPUExecutor()
    for _ in range(num_frames):
        raw = int(rng.integers(1_000_000, 2_500_000))
        hgpcn_latencies.append(
            build.seconds_for_frame(raw, depth)
            + link.octree_table_transfer_seconds(int(0.3 * raw) * 60)
            + downsampling.seconds_per_frame(depth, spec.input_size)
            + inference
        )
        cpu_latencies.append(
            cpu.preprocessing_seconds(raw, spec.input_size, "fps")
            + cpu.inference_report(
                InferenceWorkloadSpec.from_benchmark("kitti")
            ).total_seconds()
        )

    for name, latencies in (("HgPCN", hgpcn_latencies), ("CPU baseline", cpu_latencies)):
        report = evaluate_realtime(latencies, sensor_rate_hz=sensor_rate_hz, platform=name)
        print(
            f"  {name:>12}: {report.achieved_fps:6.1f} frames/s capacity, "
            f"mean latency {report.mean_frame_latency_s * 1e3:8.1f} ms, "
            f"meets {sensor_rate_hz:.0f} Hz real-time: {report.meets_realtime}"
        )


if __name__ == "__main__":
    functional_sequence()
    paper_scale_model()
