"""Pluggable, seeded traffic models for the serving soaks and benchmarks.

A traffic model turns ``(frames, rate_hz, seed, ...)`` into a deterministic
list of :class:`TrafficItem` -- a :class:`~repro.session.FrameRequest`, its
open-loop arrival offset in seconds, and an optional serving-policy class
name.  Models are registered under the ``"traffic"`` registry kind, so the
``serve`` CLI and the benchmark harness address them by string exactly like
samplers and backends::

    model = registry.create("traffic", "mixed", frames=64, rate_hz=200, seed=0)
    for item in model.items():
        ...  # submit item.request at t0 + item.arrival

Determinism contract: a model's output is a pure function of its
constructor arguments.  Arrival gaps, class draws, and frame geometry each
consume *independent* seeded generators (``seed``, ``seed + 1``, and
``seed + 2 + index`` respectively), so adding a class mix never perturbs
the arrival schedule and vice versa -- the bit-identity gate compares
served responses against a sequential run over the *same* request list,
which therefore never depends on policy configuration.

The built-in models cover the arrival shapes the serving roadmap calls out:

============  ==========================================================
``poisson``   memoryless gaps at ``rate_hz`` (the legacy soak traffic)
``burst``     trains of back-to-back arrivals separated by quiet gaps
``lognormal`` heavy-tailed gaps with unit-mean lognormal multiplier
``pareto``    power-law gaps (classical Pareto, ``alpha > 1``)
``diurnal``   sinusoidally-modulated Poisson (thinned at peak rate)
``mixed``     Poisson arrivals over two frame shapes + priority classes
``sequence``  KITTI-like fixed-cadence replay with temporal correlation
============  ==========================================================

All models emit CAD-style synthetic frames
(:func:`~repro.datasets.synthetic.sample_cad_shape`); ``mixed`` adds a
second, smaller raw size (below ``num_samples``) so its stream exercises
two warm-state shape keys, and ``sequence`` drifts one base cloud frame to
frame so consecutive requests are correlated the way a real sensor
sequence is.  Task mixing is out of scope: a serving session is built for
one task, so one server serves one task; a second task needs a second
server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

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
    #: Serving-policy class to submit under (``None`` -> server default).
    class_name: Optional[str] = None


class TrafficModel:
    """Base class: seeded arrivals + seeded frames + seeded class draws.

    Subclasses implement :meth:`_gaps` (inter-arrival seconds, length
    ``frames``; the first gap is the offset of the first arrival) and may
    override :meth:`_cloud` to change frame geometry.

    Parameters shared by every model: ``frames`` (stream length),
    ``rate_hz`` (mean arrival rate; ``0`` submits everything at once),
    ``seed``, ``raw_points`` (raw cloud size), ``class_names`` /
    ``class_weights`` (optional per-item class draw).
    """

    name = "base"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        class_names: Optional[Sequence[str]] = None,
        class_weights: Optional[Sequence[float]] = None,
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
        self.class_names = tuple(class_names) if class_names else ()
        if self.class_names:
            if class_weights is None:
                weights = np.ones(len(self.class_names))
            else:
                weights = np.asarray(list(class_weights), dtype=np.float64)
                if len(weights) != len(self.class_names):
                    raise ValueError(
                        f"{len(self.class_names)} class names but "
                        f"{len(weights)} weights"
                    )
                if not np.all(weights > 0):
                    raise ValueError("class weights must be > 0")
            self.class_probs = weights / weights.sum()
        else:
            self.class_probs = None

    # -- the pieces subclasses override ---------------------------------
    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _cloud(self, index: int) -> PointCloud:
        cloud = sample_cad_shape(
            num_points=self.raw_points,
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

    def _classes(self) -> List[Optional[str]]:
        if self.class_probs is None:
            return [None] * self.frames
        rng = np.random.default_rng(self.seed + 1)
        draws = rng.choice(
            len(self.class_names), size=self.frames, p=self.class_probs
        )
        return [self.class_names[int(d)] for d in draws]

    def items(self) -> List[TrafficItem]:
        """The full deterministic stream, in arrival order."""
        arrivals = self.arrivals()
        classes = self._classes()
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
                    class_name=classes[i],
                )
            )
        return items

    def describe(self) -> Dict[str, Any]:
        return {
            "model": self.name,
            "frames": self.frames,
            "rate_hz": self.rate_hz,
            "seed": self.seed,
            "raw_points": self.raw_points,
            "classes": list(self.class_names) or None,
        }


@registry.register("traffic", "poisson")
class PoissonTraffic(TrafficModel):
    """Memoryless arrivals at ``rate_hz`` -- the legacy soak traffic."""

    name = "poisson"

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate_hz, size=self.frames)


@registry.register("traffic", "burst")
class BurstTraffic(TrafficModel):
    """Trains of ``burst_size`` near-simultaneous arrivals.

    Within a train, gaps are ``1 / intra_burst_hz``; trains start
    ``burst_size / rate_hz`` apart on average (exponential), so the
    *mean* rate stays ``rate_hz`` while the instantaneous rate during a
    train is ``intra_burst_hz`` -- the shape that exercises SLO shedding.
    """

    name = "burst"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        class_names: Optional[Sequence[str]] = None,
        class_weights: Optional[Sequence[float]] = None,
        burst_size: int = 8,
        intra_burst_hz: float = 2000.0,
    ):
        super().__init__(
            frames, rate_hz, seed, raw_points, class_names, class_weights
        )
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {burst_size}")
        if intra_burst_hz <= 0:
            raise ValueError(
                f"intra_burst_hz must be > 0, got {intra_burst_hz}"
            )
        self.burst_size = int(burst_size)
        self.intra_burst_hz = float(intra_burst_hz)

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        gaps = np.empty(self.frames)
        for i in range(self.frames):
            if i % self.burst_size == 0:
                gaps[i] = rng.exponential(self.burst_size / self.rate_hz)
            else:
                gaps[i] = 1.0 / self.intra_burst_hz
        return gaps

    def describe(self) -> Dict[str, Any]:
        return super().describe() | {
            "burst_size": self.burst_size,
            "intra_burst_hz": self.intra_burst_hz,
        }


@registry.register("traffic", "lognormal")
class LognormalTraffic(TrafficModel):
    """Heavy-tailed gaps: lognormal with mean ``1 / rate_hz``.

    ``mu = ln(1/rate) - sigma^2 / 2`` keeps the mean exactly on target
    while ``sigma`` widens the tail (``sigma=0`` degenerates to a fixed
    cadence).
    """

    name = "lognormal"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        class_names: Optional[Sequence[str]] = None,
        class_weights: Optional[Sequence[float]] = None,
        sigma: float = 1.0,
    ):
        super().__init__(
            frames, rate_hz, seed, raw_points, class_names, class_weights
        )
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = float(sigma)

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        mu = np.log(1.0 / self.rate_hz) - self.sigma**2 / 2.0
        return rng.lognormal(mean=mu, sigma=self.sigma, size=self.frames)

    def describe(self) -> Dict[str, Any]:
        return super().describe() | {"sigma": self.sigma}


@registry.register("traffic", "pareto")
class ParetoTraffic(TrafficModel):
    """Power-law gaps: classical Pareto with mean ``1 / rate_hz``.

    Minimum gap ``m = (1/rate) * (alpha - 1) / alpha`` puts the mean of
    the Pareto(``alpha``, ``m``) distribution exactly at the target;
    ``alpha`` close to 1 makes the tail (and the bursts between long
    silences) extreme.  Requires ``alpha > 1`` for the mean to exist.
    """

    name = "pareto"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        class_names: Optional[Sequence[str]] = None,
        class_weights: Optional[Sequence[float]] = None,
        alpha: float = 1.5,
    ):
        super().__init__(
            frames, rate_hz, seed, raw_points, class_names, class_weights
        )
        if alpha <= 1:
            raise ValueError(
                f"alpha must be > 1 for a finite mean gap, got {alpha}"
            )
        self.alpha = float(alpha)

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        minimum = (1.0 / self.rate_hz) * (self.alpha - 1.0) / self.alpha
        # numpy's pareto() samples the Lomax form on [0, inf); 1 + that is
        # the classical Pareto on [1, inf), scaled to the minimum gap.
        return minimum * (1.0 + rng.pareto(self.alpha, size=self.frames))

    def describe(self) -> Dict[str, Any]:
        return super().describe() | {"alpha": self.alpha}


@registry.register("traffic", "diurnal")
class DiurnalTraffic(TrafficModel):
    """Sinusoidally-modulated Poisson: a compressed day/night cycle.

    Candidate arrivals are drawn at the peak rate ``rate_hz`` and thinned
    with acceptance probability ``rate(t) / rate_hz`` where ``rate(t)``
    swings between ``trough_fraction * rate_hz`` and ``rate_hz`` over
    ``period_seconds`` (thinning keeps the process exactly
    inhomogeneous-Poisson).  Exactly ``frames`` accepted arrivals are
    kept, so the stream length never depends on the thinning luck.
    """

    name = "diurnal"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        class_names: Optional[Sequence[str]] = None,
        class_weights: Optional[Sequence[float]] = None,
        period_seconds: float = 2.0,
        trough_fraction: float = 0.1,
    ):
        super().__init__(
            frames, rate_hz, seed, raw_points, class_names, class_weights
        )
        if period_seconds <= 0:
            raise ValueError(
                f"period_seconds must be > 0, got {period_seconds}"
            )
        if not 0.0 <= trough_fraction <= 1.0:
            raise ValueError(
                f"trough_fraction must be in [0, 1], got {trough_fraction}"
            )
        self.period_seconds = float(period_seconds)
        self.trough_fraction = float(trough_fraction)

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        arrivals = np.empty(self.frames)
        t = 0.0
        accepted = 0
        while accepted < self.frames:
            t += rng.exponential(1.0 / self.rate_hz)
            phase = 0.5 * (
                1.0 - np.cos(2.0 * np.pi * t / self.period_seconds)
            )
            intensity = self.trough_fraction + (
                1.0 - self.trough_fraction
            ) * phase
            if rng.random() <= intensity:
                arrivals[accepted] = t
                accepted += 1
        return np.diff(arrivals, prepend=0.0)

    def describe(self) -> Dict[str, Any]:
        return super().describe() | {
            "period_seconds": self.period_seconds,
            "trough_fraction": self.trough_fraction,
        }


@registry.register("traffic", "mixed")
class MixedTraffic(TrafficModel):
    """Poisson arrivals over two frame shapes (two warm-state shape keys).

    A ``small_share`` fraction of frames carries ``small_points`` raw
    points instead of ``raw_points``; keep ``small_points`` below the
    session's ``num_samples`` so the down-sampled size -- and hence the
    warm-state shape key -- genuinely differs and the scheduler runs two
    concurrent groups.  Combine with ``class_names`` for the two-priority
    mixed soak.
    """

    name = "mixed"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        class_names: Optional[Sequence[str]] = None,
        class_weights: Optional[Sequence[float]] = None,
        small_points: int = 48,
        small_share: float = 0.5,
    ):
        super().__init__(
            frames, rate_hz, seed, raw_points, class_names, class_weights
        )
        if small_points < 1:
            raise ValueError(f"small_points must be >= 1, got {small_points}")
        if not 0.0 <= small_share <= 1.0:
            raise ValueError(
                f"small_share must be in [0, 1], got {small_share}"
            )
        self.small_points = int(small_points)
        self.small_share = float(small_share)

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate_hz, size=self.frames)

    def _is_small(self, index: int) -> bool:
        # Deterministic per-index draw, independent of arrivals/classes.
        return bool(
            np.random.default_rng(self.seed + 2 + index).random()
            < self.small_share
        )

    def _cloud(self, index: int) -> PointCloud:
        small = self._is_small(index)
        cloud = sample_cad_shape(
            num_points=self.small_points if small else self.raw_points,
            shape=_SHAPES[index % len(_SHAPES)],
            non_uniformity=0.2,
            seed=self.seed + 2 + index,
        )
        size = "small" if small else "large"
        cloud.frame_id = f"traffic.mixed.{size}.{index}"
        return cloud

    def describe(self) -> Dict[str, Any]:
        return super().describe() | {
            "small_points": self.small_points,
            "small_share": self.small_share,
        }


@registry.register("traffic", "sequence")
class SequenceTraffic(TrafficModel):
    """KITTI-like replay: fixed cadence, temporally-correlated frames.

    Arrivals tick at exactly ``1 / rate_hz`` (a sensor's frame period)
    plus a small seeded jitter.  Frames are one base cloud translated by a
    cumulative random-walk drift (ego motion) with per-frame point jitter,
    so consecutive requests are *correlated* -- same raw size, same shape
    key, slightly moved geometry -- the way a replayed sequence trace is.
    """

    name = "sequence"

    def __init__(
        self,
        frames: int = 64,
        rate_hz: float = 100.0,
        seed: int = 0,
        raw_points: int = 400,
        class_names: Optional[Sequence[str]] = None,
        class_weights: Optional[Sequence[float]] = None,
        drift_per_frame: float = 0.02,
        point_jitter: float = 0.002,
        cadence_jitter: float = 0.05,
    ):
        super().__init__(
            frames, rate_hz, seed, raw_points, class_names, class_weights
        )
        if drift_per_frame < 0:
            raise ValueError(
                f"drift_per_frame must be >= 0, got {drift_per_frame}"
            )
        if point_jitter < 0:
            raise ValueError(f"point_jitter must be >= 0, got {point_jitter}")
        if not 0.0 <= cadence_jitter < 1.0:
            raise ValueError(
                f"cadence_jitter must be in [0, 1), got {cadence_jitter}"
            )
        self.drift_per_frame = float(drift_per_frame)
        self.point_jitter = float(point_jitter)
        self.cadence_jitter = float(cadence_jitter)
        self._base = sample_cad_shape(
            num_points=self.raw_points,
            shape="sphere",
            non_uniformity=0.2,
            seed=self.seed + 2,
        )

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        period = 1.0 / self.rate_hz
        jitter = rng.uniform(
            -self.cadence_jitter, self.cadence_jitter, size=self.frames
        )
        gaps = period * (1.0 + jitter)
        gaps[0] = 0.0  # the first frame of a replay starts immediately
        return gaps

    def _drift(self, index: int) -> np.ndarray:
        # Cumulative random walk: frame i's offset is the sum of i steps,
        # each drawn from its own seeded stream so any frame is computable
        # without generating its predecessors.
        offset = np.zeros(3)
        for step in range(index):
            offset += np.random.default_rng(
                self.seed + 1000 + step
            ).normal(0.0, self.drift_per_frame, size=3)
        return offset

    def _cloud(self, index: int) -> PointCloud:
        rng = np.random.default_rng(self.seed + 2 + index)
        points = self._base.points + self._drift(index)
        if self.point_jitter > 0:
            points = points + rng.normal(
                0.0, self.point_jitter, size=points.shape
            )
        return PointCloud(
            points=points,
            frame_id=f"traffic.sequence.{index}",
            timestamp=index / self.rate_hz if self.rate_hz else None,
        )

    def describe(self) -> Dict[str, Any]:
        return super().describe() | {
            "drift_per_frame": self.drift_per_frame,
            "point_jitter": self.point_jitter,
            "cadence_jitter": self.cadence_jitter,
        }
