"""Benchmark: cold per-frame construction vs a warm :class:`repro.Session`.

The seed-era one-shot pipeline rebuilt the PointNet++ network, gatherer, and
sampler for every frame; the Session API keeps that state warm and answers
repeated frame content from its response cache.  This benchmark
replays a 20-frame KITTI-like service trace (five distinct sensor frames,
each arriving four times -- the duplicate-request / replay pattern a serving
fleet sees) two ways:

* **cold** -- a fresh ``Session`` per frame with the response cache off:
  every frame pays construction plus full recomputation (the one-shot
  facade's behaviour);
* **warm** -- one long-lived ``Session``: one model build for the whole
  sequence, and repeated frame content short-circuits through the cache.

A JSON summary is emitted so the numbers can be tracked over time, and the
wall-clock comparison is wrapped in plain asserts (the warm path must be at
least 2x faster end-to-end, and must build the model exactly once).
"""

from __future__ import annotations

import json
import time

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.datasets import KittiLikeDataset
from repro.session import FrameRequest, Session

from conftest import emit

#: Service trace shape: DISTINCT frames, each repeated REPEATS times.
DISTINCT = 5
REPEATS = 4
NUM_FRAMES = DISTINCT * REPEATS
_SCALE = 0.0008
_SAMPLES = 256


def _config() -> HgPCNConfig:
    return HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=_SAMPLES, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=64, neighbors_per_centroid=16, seed=0
        ),
    )


def _service_trace() -> list:
    """A 20-request trace over 5 distinct KITTI-like frames."""
    dataset = KittiLikeDataset(num_frames=DISTINCT, seed=0, scale=_SCALE)
    distinct = [FrameRequest.from_frame(dataset.generate_frame(i)) for i in range(DISTINCT)]
    return [distinct[i % DISTINCT] for i in range(NUM_FRAMES)]


def _cold_session() -> Session:
    return Session(
        config=_config(), task="semantic_segmentation", response_cache_size=0
    )


def run_cold(requests: list) -> float:
    """Fresh construction per frame (the one-shot facade's cost model)."""
    start = time.perf_counter()
    for request in requests:
        _cold_session().run(request)
    return time.perf_counter() - start


def run_warm(requests: list) -> "tuple[float, Session]":
    """One warm session across the whole trace."""
    session = Session(config=_config(), task="semantic_segmentation")
    start = time.perf_counter()
    for request in requests:
        session.run(request)
    return time.perf_counter() - start, session


def session_reuse_comparison() -> dict:
    requests = _service_trace()
    cold_seconds = run_cold(requests)
    warm_seconds, session = run_warm(requests)
    stats = session.stats()
    return {
        "benchmark": "session_reuse",
        "num_frames": NUM_FRAMES,
        "distinct_frames": DISTINCT,
        "raw_points_per_frame": int(requests[0].cloud.num_points),
        "sampled_points": _SAMPLES,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cold_model_builds": NUM_FRAMES,
        "warm_model_builds": stats["model_builds"],
        "warm_cache_hits": stats["response_cache_hits"],
    }


def test_session_reuse_speedup():
    summary = session_reuse_comparison()
    emit(json.dumps(summary, indent=2))
    # The warm session constructs the network once for the whole trace...
    assert summary["warm_model_builds"] == 1
    # ...answers every repeated frame from the response cache...
    assert summary["warm_cache_hits"] == NUM_FRAMES - DISTINCT
    # ...and is at least 2x faster end-to-end than cold per-frame
    # construction (in practice ~REPEATS x, since repeats dominate the trace).
    assert summary["speedup"] >= 2.0


def test_warm_session_single_frame(benchmark):
    """Steady-state latency of one warm frame (model + caches hot)."""
    requests = _service_trace()
    _, session = run_warm(requests[:DISTINCT])
    fresh = KittiLikeDataset(num_frames=DISTINCT + 1, seed=0, scale=_SCALE)
    frame = fresh.generate_frame(DISTINCT)  # unseen content, warm shape
    benchmark(lambda: session.run(frame.cloud, frame_id=frame.frame_id))


def main() -> int:
    print(json.dumps(session_reuse_comparison(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
