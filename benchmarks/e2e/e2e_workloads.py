"""The four end-to-end workloads: inputs, set-up, output checks, timed phases.

Everything here drives the pipeline through its public entry points only
(``Session.run_batch``, ``FrameServer.submit``); the load of every workload is
generated from the calling thread.  See README.md for why each workload
exists and which layers it exercises or bypasses.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import HgPCNConfig, Session
from repro.datasets.synthetic import lidar_scene, sample_cad_shape
from repro.serving.queue import QueueClosed, QueueFull
from repro.serving.server import FrameServer, response_signature, signatures_equal
from repro.session import FrameRequest, FrameResponse

from e2e_host import peak_rss_mb

now = time.perf_counter

#: Frames of each workload checked bit for bit against a sequential session.
CHECK_FRAMES = 4
#: Warm frames a set-up runs after the cold first chunk.
WARMUP_FRAMES = 8
#: Open-loop phases of ``stream_small_thread``: (tag, rate in Hz, share of
#: ``--seconds`` spent submitting).  ``overload`` offers well above what two
#: threads can serve and is then drained, so its throughput is the capacity.
OPEN_PHASES = (("r10", 10.0, 0.4), ("r20", 20.0, 0.17), ("overload", 120.0, 0.12))
#: How long a single future may take before it counts as timed out.
REQUEST_TIMEOUT_S = 60.0

_NUM_CLASSES = {"classification": 40, "semantic_segmentation": 13}


@dataclass(frozen=True)
class Shape:
    """Raw points per frame, down-sampled size K, neighbours per centroid."""

    points: int
    samples: int
    neighbors: int = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "direct" (one caller on ``run_batch``), "open" (arrival schedule through
    #: a server) or "closed" (fixed number of requests outstanding).
    kind: str
    generator: Callable[..., Any]
    task: str
    shape: Shape
    smoke_shape: Shape
    #: Distinct frames generated per set-up (cycled when a run outlasts them).
    pool: int
    #: Frames per ``run_batch`` call (direct) or per replayed micro-batch.
    chunk: int
    response_cache_size: int = 0
    #: ``FrameServer`` keyword arguments (served workloads).
    server: Dict[str, Any] = field(default_factory=dict)
    #: Requests kept outstanding by the closed-loop generator.
    outstanding: int = 0

    def current_shape(self, smoke: bool) -> Shape:
        return self.smoke_shape if smoke else self.shape

    def session_factory(self, smoke: bool) -> Callable[[], Session]:
        shape = self.current_shape(smoke)

        def build() -> Session:
            return Session(
                config=HgPCNConfig.for_task(shape.samples, neighbors=shape.neighbors),
                task=self.task,
                response_cache_size=self.response_cache_size,
            )

        return build

    def make_frames(self, seed: int, smoke: bool) -> List[FrameRequest]:
        shape = self.current_shape(smoke)
        return [
            FrameRequest(
                cloud=self.generator(shape.points, seed=seed * 1000 + i),
                frame_id=f"{self.name}-{i}",
            )
            for i in range(self.pool)
        ]

    def logits_shape(self, smoke: bool) -> Tuple[int, int]:
        rows = 1 if self.task == "classification" else self.current_shape(smoke).samples
        return (rows, _NUM_CLASSES[self.task])


_SERVER_COMMON = dict(max_wait_seconds=0.005, queue_capacity=4096, clock=now)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="cls1k_direct",
        why="Closed loop, one caller, run_batch chunks of 8 CAD frames (4096 pts -> K=1024, "
        "classification, cache 64, all distinct): network + VEG dominate; serving absent.",
        kind="direct",
        generator=sample_cad_shape,
        task="classification",
        shape=Shape(4096, 1024),
        smoke_shape=Shape(384, 96, 8),
        pool=256,
        chunk=8,
        response_cache_size=64,
    ),
    Workload(
        name="lidar100k_direct",
        why="Closed loop, one caller, run_batch frame at a time over 32 LiDAR frames (100k pts "
        "-> K=2048, segmentation, cache off): octree + OIS are ~40% and FP layers exist.",
        kind="direct",
        generator=lidar_scene,
        task="semantic_segmentation",
        shape=Shape(100_000, 2048),
        smoke_shape=Shape(2000, 128, 16),
        pool=32,
        chunk=1,
    ),
    Workload(
        name="stream_small_thread",
        why="Open loop, seeded Poisson 10 Hz, 20 Hz, then 120 Hz overload, through a 2-thread "
        "FrameServer on small CAD frames (1024 pts -> K=128): admission, batching, GIL, futures.",
        kind="open",
        generator=sample_cad_shape,
        task="classification",
        shape=Shape(1024, 128, 16),
        smoke_shape=Shape(256, 64, 8),
        pool=256,
        chunk=4,
        server=dict(execution="thread", num_workers=2, max_batch_size=8, **_SERVER_COMMON),
    ),
    Workload(
        name="stream_lidar_process",
        why="Closed loop, 4 requests outstanding, through a 2-process FrameServer on the "
        "lidar100k_direct frames: forked workers and shared-memory transport (~15 MB/frame).",
        kind="closed",
        generator=lidar_scene,
        task="semantic_segmentation",
        shape=Shape(100_000, 2048),
        smoke_shape=Shape(2000, 128, 16),
        pool=32,
        chunk=1,
        server=dict(execution="process", num_workers=2, max_batch_size=4, **_SERVER_COMMON),
        outstanding=4,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Context:
    """One set-up of a workload: inputs, the warm system, where to resume."""

    workload: Workload
    seed: int
    smoke: bool
    frames: List[FrameRequest]
    session: Optional[Session] = None
    server: Optional[FrameServer] = None
    #: Responses of the first ``CHECK_FRAMES`` frames through the workload's
    #: own path, kept for the output check.
    checked: List[FrameResponse] = field(default_factory=list)
    cursor: int = 0

    def take(self, count: int) -> List[FrameRequest]:
        """The next ``count`` frames of the pool (cycled)."""
        picked = [
            self.frames[(self.cursor + i) % len(self.frames)] for i in range(count)
        ]
        self.cursor += count
        return picked

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown(drain=True, timeout=REQUEST_TIMEOUT_S)
            self.server = None


def set_up(workload: Workload, seed: int, smoke: bool) -> Tuple[Context, float]:
    """Generate inputs, build the system, run the cold chunk and warm it.

    Returns the context and the wall seconds all of that took.
    """
    start = now()
    ctx = Context(workload, seed, smoke, workload.make_frames(seed, smoke))
    factory = workload.session_factory(smoke)
    responses: List[FrameResponse] = []
    if workload.kind == "direct":
        ctx.session = factory()
        # Cold first chunk, then whole chunks until WARMUP_FRAMES are warm.
        warm_chunks = -(-WARMUP_FRAMES // workload.chunk)
        for _ in range(1 + warm_chunks):
            responses.extend(ctx.session.run_batch(ctx.take(workload.chunk)).responses)
    else:
        ctx.server = FrameServer(factory, **workload.server).start()
        try:
            responses.append(_submit(ctx).result(REQUEST_TIMEOUT_S))
            # A burst, so every worker of the pool gets to warm up.
            futures = [_submit(ctx) for _ in range(WARMUP_FRAMES)]
            responses.extend(f.result(REQUEST_TIMEOUT_S) for f in futures)
        except BaseException:
            ctx.close()
            raise
    ctx.checked = responses[:CHECK_FRAMES]
    return ctx, now() - start


def _submit(ctx: Context, tag: Optional[str] = None):
    """Submit the pool's next frame.  Warm-up keeps the frame's own id (the
    output check compares ids); timed requests are tagged ``phase:index``."""
    (frame,) = ctx.take(1)
    assert ctx.server is not None
    return ctx.server.submit(frame, frame_id=tag)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def response_ok(response: Any, logits_shape: Tuple[int, int]) -> bool:
    """Finite logits of the expected shape."""
    if not isinstance(response, FrameResponse):
        return False
    logits = response.result.inference.forward.logits
    return tuple(logits.shape) == logits_shape and bool(np.isfinite(logits).all())


def check_outputs(ctx: Context) -> Tuple[int, str]:
    """Compare the first frames through the workload's own path with a fresh
    sequential ``Session.run``; returns (mismatches, labels digest).

    The digest hashes the predicted labels of those frames, so output drift
    between two commits shows even when each commit agrees with itself.
    """
    reference = ctx.workload.session_factory(ctx.smoke)()
    mismatches = 0
    digest = hashlib.sha1()
    for frame, response in zip(ctx.frames, ctx.checked):
        expected = reference.run(frame)
        if not signatures_equal(
            response_signature(response), response_signature(expected)
        ):
            mismatches += 1
        digest.update(np.ascontiguousarray(response.predicted_labels()).tobytes())
    mismatches += CHECK_FRAMES - len(ctx.checked)
    return mismatches, digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What the generator saw of one served phase."""

    tag: str
    due: List[float] = field(default_factory=list)
    submitted: List[float] = field(default_factory=list)
    submit_us: List[float] = field(default_factory=list)
    done: List[Optional[float]] = field(default_factory=list)
    futures: List[Any] = field(default_factory=list)
    #: Requests not yet resolved when the last one had been submitted.
    backlog_end: int = 0

    def submit(self, ctx: Context, due: float) -> None:
        index = len(self.due)
        self.due.append(due)
        self.done.append(None)
        t0 = now()
        self.submitted.append(t0)
        try:
            future = _submit(ctx, f"{self.tag}:{index}")
        except (QueueFull, QueueClosed):  # refused at the door: a failure
            self.futures.append(None)
            return
        self.submit_us.append((now() - t0) * 1e6)
        # Stamped by whichever server thread resolves the future.
        future.add_done_callback(lambda _f, i=index: self.done.__setitem__(i, now()))
        self.futures.append(future)

    @staticmethod
    def wait(future: Any, logits_shape: Tuple[int, int]) -> bool:
        """Whether ``future`` resolved to a valid response in time."""
        if future is None:
            return False
        try:
            return response_ok(future.result(REQUEST_TIMEOUT_S), logits_shape)
        except Exception:  # typed serving failure or timeout: counted, not raised
            return False

    def latencies_ms(self) -> List[float]:
        return [
            (done - due) * 1e3
            for done, due in zip(self.done, self.due)
            if done is not None
        ]


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: Generator-side view of each served phase, by tag.
    phases: Dict[str, Phase] = field(default_factory=dict)
    #: Raw per-chunk / per-request samples behind the metrics (kept in the
    #: run's own record so a result can be re-reduced without re-running).
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def measure(ctx: Context, seconds: float) -> Measurement:
    """Run the workload's timed phase for about ``seconds`` seconds."""
    run = {"direct": _measure_direct, "open": _measure_open, "closed": _measure_closed}
    out = run[ctx.workload.kind](ctx, seconds)
    out.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    return out


def _measure_direct(ctx: Context, seconds: float) -> Measurement:
    out = Measurement()
    session, chunk = ctx.session, ctx.workload.chunk
    assert session is not None
    logits_shape = ctx.workload.logits_shape(ctx.smoke)
    chunk_ms: List[float] = []
    start = now()
    elapsed = 0.0
    while elapsed < seconds:
        frames = ctx.take(chunk)
        t0 = now()
        responses = session.run_batch(frames).responses
        t1 = now()
        chunk_ms.append((t1 - t0) * 1e3)
        elapsed = t1 - start
        out.attempted += chunk
        out.failed += sum(not response_ok(r, logits_shape) for r in responses)
    out.samples["chunk_ms"] = chunk_ms
    out.put("frames_per_s", (out.attempted - out.failed) / elapsed, "1/s", out.attempted)
    # A caller waits for the whole chunk; frame_ms is that wait per frame.
    out.put("latency_ms_p50", percentile(chunk_ms, 50), "ms", len(chunk_ms))
    out.put("frame_ms_p50", percentile(chunk_ms, 50) / chunk, "ms", len(chunk_ms))
    out.put("frame_ms_p90", percentile(chunk_ms, 90) / chunk, "ms", len(chunk_ms))
    return out


def _measure_open(ctx: Context, seconds: float) -> Measurement:
    out = Measurement()
    logits_shape = ctx.workload.logits_shape(ctx.smoke)
    rng = np.random.default_rng([ctx.seed, 1])  # arrivals; geometry has its own seeds
    for tag, rate, share in OPEN_PHASES:
        count = max(4, int(round(rate * seconds * share)))
        offsets = np.cumsum(rng.exponential(1.0 / rate, count))
        phase = out.phases[tag] = Phase(tag)
        t0 = now()
        for offset in offsets:
            due = t0 + float(offset)
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            phase.submit(ctx, due)
        phase.backlog_end = sum(
            done is None and future is not None
            for done, future in zip(phase.done, phase.futures)
        )
        # Drain before the next phase so the phases do not share a queue.
        ok = sum(phase.wait(future, logits_shape) for future in phase.futures)
        out.attempted += count
        out.failed += count - ok
    for tag, phase in out.phases.items():
        out.samples[f"latency_ms.{tag}"] = phase.latencies_ms()
        out.samples[f"done_s.{tag}"] = sorted(d - phase.due[0] for d in phase.done if d is not None)
    # The headline latency is the 10 Hz phase: at 20 Hz queueing multiplies
    # whatever the host does to the service time, so that one is kept apart.
    for name, tag in (("latency_ms_p50", "r10"), ("latency_ms_p50.r20", "r20")):
        lat = out.samples[f"latency_ms.{tag}"]
        out.put(name, percentile(lat, 50), "ms", len(lat))
    over = out.phases["overload"]
    finished = [done for done in over.done if done is not None]
    out.put(
        "frames_per_s",
        len(finished) / (max(finished) - over.due[0]),
        "1/s",
        len(finished),
    )
    return out


def _measure_closed(ctx: Context, seconds: float) -> Measurement:
    out = Measurement()
    logits_shape = ctx.workload.logits_shape(ctx.smoke)
    phase = out.phases["closed"] = Phase("closed")
    waiting: deque = deque()
    ok = 0
    start = now()
    while now() - start < seconds:
        while len(waiting) < ctx.workload.outstanding:
            phase.submit(ctx, now())
            waiting.append(phase.futures[-1])
        ok += phase.wait(waiting.popleft(), logits_shape)
    ok += sum(phase.wait(future, logits_shape) for future in waiting)
    out.attempted = len(phase.due)
    out.failed = out.attempted - ok
    finished = [done for done in phase.done if done is not None]
    lat = out.samples["latency_ms.closed"] = phase.latencies_ms()
    out.samples["done_s.closed"] = sorted(done - start for done in finished)
    out.put("frames_per_s", len(finished) / (max(finished) - start), "1/s", len(finished))
    out.put("latency_ms_p50", percentile(lat, 50), "ms", len(lat))
    return out


def serving_metrics(ctx: Context, served: Measurement, out: Measurement) -> List[Any]:
    """Serving-layer numbers of a served run: the generator's own timestamps
    plus the request records the server keeps anyway.

    Queueing and batching are read in the *steady* phase (20 Hz for the open
    loop, the whole run for the closed loop), where the server is neither
    idle nor saturated.  Puts the metrics into ``out`` and returns the timed
    phases' request records.
    """
    assert ctx.server is not None
    for tag, phase in served.phases.items():
        if tag == "closed":
            continue
        late = [(s - d) * 1e3 for s, d in zip(phase.submitted, phase.due)]
        out.put(f"serving.generator_late_ms_p99.{tag}", percentile(late, 99), "ms", len(late))
        out.put(f"serving.backlog_end.{tag}", phase.backlog_end, "count", len(late))
        if tag != "overload":
            lat = phase.latencies_ms()
            out.put(f"serving.latency_ms_p90.{tag}", percentile(lat, 90), "ms", len(lat))
    # Warm-up requests keep their frame's id; timed ones are "phase:index".
    records = [r for r in ctx.server.metrics.records if ":" in r.frame_id]
    phase = served.phases.get("r20") or served.phases["closed"]
    steady = [r for r in records if r.ok and r.frame_id.startswith(phase.tag + ":")]
    count = len(steady)
    batches = {r.batch_id: r for r in steady}
    out.put("serving.submit_us_p50", percentile(phase.submit_us, 50), "us", len(phase.submit_us))
    out.put("serving.queue_wait_ms_p50", percentile([r.queue_wait * 1e3 for r in steady], 50), "ms", count)
    out.put("serving.service_ms_p50", percentile([r.service_time * 1e3 for r in steady], 50), "ms", count)
    out.put("serving.batch_size_mean", count / len(batches), "frames", len(batches))
    out.put(
        "serving.size_trigger_share",
        sum(r.trigger == "size" for r in batches.values()) / len(batches),
        "share",
        len(batches),
    )
    # The worker stamps completed_at just before it resolves the batch's
    # futures; the generator's callback stamp is when the caller could see it.
    resolved = [(phase.done[int(r.frame_id.split(":")[1])], r.completed_at) for r in steady]
    lag = [(seen - stamped) * 1e3 for seen, stamped in resolved if seen is not None]
    out.put("serving.resolve_lag_ms_p50", percentile(lag, 50), "ms", len(lag))
    per_worker: Dict[str, int] = {}
    for record in records:
        per_worker[record.worker] = per_worker.get(record.worker, 0) + 1
    idle = ctx.workload.server["num_workers"] - len(per_worker)
    out.put(
        "serving.worker_balance",
        0.0 if idle else min(per_worker.values()) / max(per_worker.values()),
        "share",
        len(records),
    )
    return records
