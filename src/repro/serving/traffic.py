"""Seeded traffic models for the serving soaks and benchmarks.

A traffic model turns ``(frames, rate_hz, seed, ...)`` into a deterministic
list of :class:`TrafficItem` -- a :class:`~repro.session.FrameRequest` and
its open-loop arrival offset in seconds.  Models are registered under the
``"traffic"`` registry kind, so the ``serve`` CLI and the benchmark harness
address them by string exactly like samplers and backends::

    model = registry.create("traffic", "mixed", frames=64, rate_hz=200, seed=0)
    for item in model.items():
        ...  # submit item.request at t0 + item.arrival

Determinism contract: a model's output is a pure function of its
constructor arguments.  Arrival gaps and frame geometry consume
*independent* seeded generators (``seed`` and ``seed + 2 + index``), so a
frame's payload never depends on the arrival schedule and vice versa --
the bit-identity gate compares served responses against a sequential run
over the *same* request list.

Two models are registered, both Poisson in time: ``poisson`` emits one
raw size of CAD-style synthetic frame
(:func:`~repro.datasets.synthetic.sample_cad_shape`), and ``mixed`` adds a
second, smaller raw size (below ``num_samples``) so its stream exercises
two warm-state shape keys -- the CI shed soak and the
``serving_mixed_traffic`` benchmark scenario drive it under shed
admission.  Task mixing is out of scope: a serving session is built for one
task, so one server serves one task; a second task needs a second server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import registry
from repro.datasets.synthetic import sample_cad_shape
from repro.geometry.pointcloud import PointCloud
from repro.session import FrameRequest

#: Shapes cycled by the frame generators (distinct geometry per frame).
_SHAPES = ("sphere", "box", "cylinder")


@dataclass(frozen=True)
class TrafficItem:
    """One request of a generated traffic stream."""

    request: FrameRequest
    #: Open-loop arrival offset from the stream start, in seconds.
    arrival: float


class TrafficModel:
    """Base class: seeded arrivals + seeded frames.

    Subclasses implement ``_gaps(rng)`` (inter-arrival seconds, length
    ``frames``; the first gap is the offset of the first arrival) and may
    override :meth:`_cloud` to change frame geometry.

    Parameters shared by every model: ``frames`` (stream length),
    ``rate_hz`` (mean arrival rate; ``0`` submits everything at once),
    ``seed``, ``raw_points`` (raw cloud size).
    """

    name = "base"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
    ):
        if frames < 1:
            raise ValueError(f"frames must be >= 1, got {frames}")
        if rate_hz < 0:
            raise ValueError(f"rate_hz must be >= 0, got {rate_hz}")
        if raw_points < 1:
            raise ValueError(f"raw_points must be >= 1, got {raw_points}")
        self.frames = int(frames)
        self.rate_hz = float(rate_hz)
        self.seed = int(seed)
        self.raw_points = int(raw_points)

    # -- the pieces subclasses override ---------------------------------
    def _cloud(self, index: int, num_points: Optional[int] = None) -> PointCloud:
        cloud = sample_cad_shape(
            num_points=num_points or self.raw_points,
            shape=_SHAPES[index % len(_SHAPES)],
            non_uniformity=0.2,
            seed=self.seed + 2 + index,
        )
        cloud.frame_id = f"traffic.{self.name}.{index}"
        return cloud

    # -- generation ------------------------------------------------------
    def arrivals(self) -> np.ndarray:
        """Cumulative arrival offsets (seconds, length ``frames``)."""
        if self.rate_hz == 0:
            return np.zeros(self.frames)
        gaps = np.asarray(self._gaps(np.random.default_rng(self.seed)))
        if gaps.shape != (self.frames,):
            raise AssertionError(
                f"{type(self).__name__}._gaps returned shape {gaps.shape}, "
                f"expected ({self.frames},)"
            )
        return np.cumsum(np.maximum(gaps, 0.0))

    def items(self) -> List[TrafficItem]:
        """The full deterministic stream, in arrival order."""
        arrivals = self.arrivals()
        items = []
        for i in range(self.frames):
            cloud = self._cloud(i)
            items.append(
                TrafficItem(
                    request=FrameRequest(
                        cloud=cloud,
                        frame_id=cloud.frame_id or f"traffic.{self.name}.{i}",
                        timestamp=cloud.timestamp,
                    ),
                    arrival=float(arrivals[i]),
                )
            )
        return items


@registry.register("traffic", "poisson")
class PoissonTraffic(TrafficModel):
    """Memoryless arrivals at ``rate_hz`` -- the legacy soak traffic."""

    name = "poisson"

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate_hz, size=self.frames)


@registry.register("traffic", "mixed")
class MixedTraffic(PoissonTraffic):
    """Poisson arrivals over two frame shapes (two warm-state shape keys).

    A ``small_share`` fraction of frames carries ``small_points`` raw
    points instead of ``raw_points``; keep ``small_points`` below the
    session's ``num_samples`` so the down-sampled size -- and hence the
    warm-state shape key -- genuinely differs and the scheduler runs two
    concurrent groups.
    """

    name = "mixed"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        small_points: int = 48,
        small_share: float = 0.5,
    ):
        super().__init__(frames, rate_hz, seed, raw_points)
        if small_points < 1:
            raise ValueError(f"small_points must be >= 1, got {small_points}")
        if not 0.0 <= small_share <= 1.0:
            raise ValueError(
                f"small_share must be in [0, 1], got {small_share}"
            )
        self.small_points = int(small_points)
        self.small_share = float(small_share)

    def _is_small(self, index: int) -> bool:
        # Deterministic per-index draw, independent of the arrivals.
        return bool(
            np.random.default_rng(self.seed + 2 + index).random()
            < self.small_share
        )

    def _cloud(self, index: int) -> PointCloud:
        small = self._is_small(index)
        cloud = super()._cloud(index, self.small_points if small else self.raw_points)
        size = "small" if small else "large"
        cloud.frame_id = f"traffic.mixed.{size}.{index}"
        return cloud
