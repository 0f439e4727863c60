"""KITTI-like synthetic LiDAR sequence (outdoor segmentation, Table I row 4).

Frames carry timestamps at the sensor's generation rate (10 Hz for the KITTI
Velodyne), and raw frame sizes vary between frames, both of which matter for
the real-time, end-to-end analysis of Section VII-E ("the maximum generation
rate of KITTI data frames is less than 16 frames per second").
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Frame, PointCloudDataset, get_benchmark
from repro.datasets.synthetic import lidar_scene


class KittiLikeDataset(PointCloudDataset):
    """Sequential LiDAR sweeps with timestamps and irregular frame sizes."""

    def __init__(
        self,
        num_frames: int = 8,
        seed: int = 0,
        scale: float = 1.0,
        frame_rate_hz: float | None = None,
        frame_jitter: float = 0.1,
    ):
        super().__init__(num_frames=num_frames, seed=seed, scale=scale)
        self.spec = get_benchmark("kitti")
        self.frame_rate_hz = frame_rate_hz or self.spec.frame_rate_hz or 10.0
        if self.frame_rate_hz <= 0:
            raise ValueError("frame_rate_hz must be positive")
        if not 0 <= frame_jitter < 1:
            raise ValueError("frame_jitter must be in [0, 1)")
        self.frame_jitter = frame_jitter

    def generate_frame(self, index: int) -> Frame:
        if not 0 <= index < self.num_frames:
            raise IndexError("frame index out of range")
        rng = np.random.default_rng(self.seed + index)
        raw_size = self._scaled_points(self._frame_raw_size(rng))
        cloud = lidar_scene(
            num_points=raw_size,
            num_objects=int(rng.integers(6, 24)),
            seed=self.seed + index,
        )
        period = 1.0 / self.frame_rate_hz
        jitter = rng.uniform(-self.frame_jitter, self.frame_jitter) * period
        timestamp = index * period + max(0.0, jitter) if index else 0.0
        cloud.frame_id = f"kitti.{index:06d}"
        cloud.timestamp = timestamp
        # Labels: ground vs object vs high returns by height band.
        z = cloud.points[:, 2]
        labels = np.digitize(z, bins=[0.15, 2.5])
        return Frame(
            cloud=cloud,
            frame_id=cloud.frame_id,
            timestamp=timestamp,
            labels=labels,
        )
