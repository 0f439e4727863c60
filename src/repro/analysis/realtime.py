"""Real-time capability analysis (Section VII-E).

The criterion: the end-to-end service keeps up when its sustained frame rate
is at least the sensor's data generation rate.  The paper reports HgPCN
processing 16 average KITTI frames per second against a generation rate below
16 FPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.lidar import LidarSensorModel, ServiceTrace


@dataclass
class RealTimeReport:
    """Outcome of the real-time check for one platform on one sequence."""

    platform: str
    sensor_rate_hz: float
    achieved_fps: float
    mean_frame_latency_s: float
    p99_frame_latency_s: float
    max_backlog: int
    meets_realtime: bool


def evaluate_realtime(
    per_frame_latencies_s: Sequence[float],
    sensor_rate_hz: float = 10.0,
    platform: str = "hgpcn",
    sensor: Optional[LidarSensorModel] = None,
) -> RealTimeReport:
    """Queue modelled per-frame latencies through a sensor arrival schedule."""
    latencies = np.asarray(list(per_frame_latencies_s), dtype=float)
    if latencies.size == 0:
        raise ValueError("need at least one frame latency")
    if np.any(latencies < 0):
        raise ValueError("latencies must be non-negative")
    sensor = sensor or LidarSensorModel(frame_rate_hz=sensor_rate_hz)
    trace: ServiceTrace = sensor.simulate_service(latencies)
    # Report the service *capacity* (frames the pipeline could process per
    # second if never starved), which is the number the paper quotes ("16
    # average frames per second"); whether that capacity suffices is decided
    # by the queueing trace against the sensor's actual arrival schedule.
    achieved = 1.0 / max(float(latencies.mean()), 1e-12)
    return RealTimeReport(
        platform=platform,
        sensor_rate_hz=sensor.frame_rate_hz,
        achieved_fps=achieved,
        mean_frame_latency_s=float(latencies.mean()),
        p99_frame_latency_s=float(np.percentile(latencies, 99)),
        max_backlog=trace.max_backlog(),
        meets_realtime=trace.keeps_up(),
    )
