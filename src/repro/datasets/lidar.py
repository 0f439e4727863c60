"""LiDAR sensor model: frame generation timing for the real-time analysis.

Section VII-E defines "meeting the real-time requirement" as the end-to-end
processing of each frame keeping up with the sensor's data generation rate.
:class:`LidarSensorModel` produces the arrival schedule of frames (period +
jitter) and, given per-frame processing latencies, computes the achieved
throughput, queueing backlog, and whether the pipeline keeps up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class LidarSensorModel:
    """A sensor emitting frames at ``frame_rate_hz`` with optional jitter."""

    frame_rate_hz: float = 10.0
    jitter_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.frame_rate_hz <= 0:
            raise ValueError("frame_rate_hz must be positive")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError("jitter_fraction must be in [0, 1)")

    @property
    def period_s(self) -> float:
        return 1.0 / self.frame_rate_hz

    def arrival_times(self, num_frames: int) -> np.ndarray:
        """Monotonic arrival timestamps for ``num_frames`` frames."""
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        rng = np.random.default_rng(self.seed)
        base = np.arange(num_frames) * self.period_s
        jitter = rng.uniform(
            -self.jitter_fraction, self.jitter_fraction, size=num_frames
        ) * self.period_s
        times = base + jitter
        times[0] = max(0.0, times[0])
        return np.maximum.accumulate(times)

    # ------------------------------------------------------------------
    def simulate_service(
        self, processing_latencies_s: Sequence[float]
    ) -> "ServiceTrace":
        """Queue frames through a single-server pipeline.

        Each frame starts processing when both it has arrived and the
        previous frame has finished (frames are processed in order, one at a
        time, matching the single-accelerator HgPCN prototype).
        """
        latencies = list(processing_latencies_s)
        arrivals = self.arrival_times(len(latencies))
        completions: List[float] = []
        ready = 0.0
        for arrival, latency in zip(arrivals, latencies):
            start = max(arrival, ready)
            ready = start + latency
            completions.append(ready)
        return ServiceTrace(
            arrival_times=arrivals,
            completion_times=np.asarray(completions),
            processing_latencies=np.asarray(latencies),
            sensor_rate_hz=self.frame_rate_hz,
        )


@dataclass
class ServiceTrace:
    """Result of pushing a frame sequence through a processing pipeline."""

    arrival_times: np.ndarray
    completion_times: np.ndarray
    processing_latencies: np.ndarray
    sensor_rate_hz: float

    @property
    def num_frames(self) -> int:
        return int(self.arrival_times.shape[0])

    def achieved_fps(self) -> float:
        """Throughput measured over the busy interval."""
        span = self.completion_times[-1] - self.arrival_times[0]
        if span <= 0:
            return float("inf")
        return self.num_frames / span

    def max_backlog(self) -> int:
        """Largest number of frames waiting or in service at any completion."""
        backlog = 0
        for i, completion in enumerate(self.completion_times):
            arrived = int(np.searchsorted(self.arrival_times, completion, side="right"))
            backlog = max(backlog, arrived - i - 1 + 1)
        return backlog

    def keeps_up(self, slack: float = 1e-9) -> bool:
        """True when the service rate matches or exceeds the sensor rate.

        The criterion is the paper's: the pipeline keeps up when its
        steady-state throughput is at least the frame generation rate (the
        backlog stays bounded over the sequence).
        """
        return self.achieved_fps() + slack >= self.sensor_rate_hz or self.max_backlog() <= 1
