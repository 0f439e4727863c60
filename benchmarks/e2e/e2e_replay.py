"""The traced pass: the harness replays the pipeline layer by layer.

Nothing under ``src/`` is wrapped or patched.  For every chunk of fresh
frames the pass runs three things back to back and records a span around
each call into a layer's public functions:

* ``untraced`` -- ``Session.run_batch`` on the chunk, the reference;
* ``pipeline`` -- the calls ``run_batch`` makes, in its order and with its
  sub-batch size (coerce, digest, stack, ``PreprocessingEngine.process_batch``,
  stack, ``InferenceEngine.process_batch``).  These are the *top-level* spans:
  what they leave unexplained of ``untraced`` is ``session.residual_ms``;
* ``layers`` -- the calls the two engines make, stand-alone (octree build,
  table, sampler, each network block, each VEG gather, the whole forward).
  An engine's self time is its pipeline span minus these.

Both replays must reproduce the untraced logits bit for bit, or the pass
fails.  Spans are kept in memory and written when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.framebatch import FrameBatch
from repro.datastructuring.base import pick_random_centroids
from repro.geometry.voxelgrid import suggest_depth
from repro.network.layers import ReLU
from repro.octree.builder import Octree
from repro.octree.linear import OctreeTable
from repro.serving.cluster.transport import (
    SharedMemoryArena,
    decode_payload,
    decode_requests,
    encode_payload,
    encode_requests,
)
from repro.serving.metrics import ManualClock
from repro.serving.queue import AdmissionQueue
from repro.serving.scheduler import MicroBatchScheduler
from repro.session import FrameRequest, FrameResponse, Session

from e2e_workloads import (
    CHECK_FRAMES,
    Context,
    Measurement,
    measure,
    now,
    percentile,
    serving_metrics,
)

#: Spans whose sum is compared with the untraced chunk (``trace.coverage_share``).
TOP_LEVEL = (
    "session.coerce",
    "session.digest",
    "core.stack",
    "core.preprocess",
    "core.inference",
)


class Tracer:
    """In-memory span recorder; ``trace`` names what the spans belong to (one
    replayed chunk, or one served request) and is shared by all of them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self.trace = ""
        self._open: List[int] = []

    def add(
        self, name: str, layer: str, start: float, end: float,
        trace: Optional[str] = None, frames: int = 1,
    ) -> Dict[str, Any]:
        """Record a span; timestamps may come from another component's clock
        readings (the server's request records)."""
        record = {
            "id": len(self.spans),
            "trace": self.trace if trace is None else trace,
            "name": name,
            "layer": layer,
            "workload": self.workload,
            "unit": "s",
            "frames": frames,
            "parent": self._open[-1] if self._open else None,
            "start_s": start,
            "end_s": end,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, layer: str, frames: int = 1) -> Iterator[None]:
        record = self.add(name, layer, 0.0, 0.0, frames=frames)
        self._open.append(record["id"])
        record["start_s"] = now()
        try:
            yield
        finally:
            record["end_s"] = now()
            self._open.pop()

    def seconds_by_name(self, first: int) -> Dict[str, List[float]]:
        """Durations of the spans recorded since span ``first``, by name."""
        grouped: Dict[str, List[float]] = {}
        for span in self.spans[first:]:
            grouped.setdefault(span["name"], []).append(span["end_s"] - span["start_s"])
        return grouped

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def logits_equal(untraced: Sequence[np.ndarray], replayed: Sequence[np.ndarray]) -> bool:
    """The replay guard: every frame's logits identical, bit for bit."""
    return len(untraced) == len(replayed) and all(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(untraced, replayed)
    )


# ----------------------------------------------------------------------
# Compute replay
# ----------------------------------------------------------------------
def _replay_blocks(model: Any, batch: FrameBatch, tracer: Tracer):
    """The model's blocks in its own order; returns (logits, sa1 clouds)."""
    clouds, features, frames = list(batch.clouds), batch.features, len(batch)
    with tracer.span("network.sa1", "network", frames):
        clouds1, feat1, _ = model.sa1.forward_batch(clouds, features)
    with tracer.span("network.sa2", "network", frames):
        clouds2, feat2, _ = model.sa2.forward_batch(clouds1, feat1)
    if hasattr(model, "sa3"):  # classification: global SA + per-frame FC head
        with tracer.span("network.sa3", "network", frames):
            _, feat3, _ = model.sa3.forward_batch(clouds2, feat2)
        with tracer.span("network.head", "network", frames):
            relu, logits = ReLU(), []
            for b in range(frames):
                x = feat3[b]
                for fc in (model.fc1, model.fc2):
                    x = relu(model.backend.apply(fc, x))
                logits.append(model.backend.apply(model.fc3, x))
    else:  # segmentation: two FP layers + per-point head
        with tracer.span("network.fp1", "network", frames):
            up1, _ = model.fp1.forward_batch(clouds1, feat1, clouds2, feat2)
        with tracer.span("network.fp0", "network", frames):
            up0, _ = model.fp0.forward_batch(clouds, features, clouds1, up1)
        with tracer.span("network.head", "network", frames):
            flat = up0.reshape(frames * up0.shape[1], -1)
            logits = list(
                model.backend.apply(model.head, flat, frames).reshape(
                    frames, up0.shape[1], -1
                )
            )
    return logits, clouds1


def replay_chunk(session: Session, frames: List[FrameRequest], tracer: Tracer) -> bool:
    """Untraced run, pipeline replay and layer replay of one chunk.

    Returns whether both replays reproduced the untraced logits.
    """
    count = len(frames)
    span = tracer.span
    pre_engine, inf_engine = session.preprocessing_engine, session.inference_engine
    samples = session.shape_key(frames[0].cloud)[1]
    per_sub = max(1, session.batch_rows_budget // max(1, samples))
    with span("untraced", "harness", count):
        untraced = [
            r.result.inference.forward.logits
            for r in session.run_batch(frames).responses
        ]

    pipeline_logits: List[np.ndarray] = []
    with span("pipeline", "harness", count):
        with span("session.coerce", "session", count):
            requests = [FrameRequest.coerce(f, index=i) for i, f in enumerate(frames)]
        if session.response_cache_size:
            with span("session.digest", "session", count):
                for request in requests:
                    request.content_digest()
        subs = [requests[i : i + per_sub] for i in range(0, count, per_sub)]
        for sub in subs:
            with span("core.stack", "core", len(sub)):
                batch = FrameBatch.from_clouds([r.cloud for r in sub])
            with span("core.preprocess", "core", len(sub)):
                pres = pre_engine.process_batch(batch)
            with span("core.stack", "core", len(sub)):
                sampled_batch = FrameBatch.from_clouds([p.sampled for p in pres])
            with span("core.inference", "core", len(sub)):
                executions = inf_engine.process_batch(sampled_batch)
            pipeline_logits.extend(e.forward.logits for e in executions)

    block_logits: List[np.ndarray] = []
    with span("layers", "harness", count):
        for sub in subs:
            clouds = [r.cloud for r in sub]
            depth = session.config.preprocessing.octree_depth or suggest_depth(
                clouds[0].num_points
            )
            with span("octree.build", "octree", len(sub)):
                octrees = Octree.build_batch(clouds, depth=depth)
            sampler = pre_engine.sampler_for(depth)
            sampled = []
            for cloud, octree in zip(clouds, octrees):
                with span("octree.table", "octree"):
                    OctreeTable.from_flat(octree)
                with span("sampling.sample", "sampling"):
                    sampled.append(
                        sampler.sample(
                            cloud, min(samples, cloud.num_points), octree=octree
                        ).sampled
                    )
            batch = FrameBatch.from_clouds(sampled)
            model = inf_engine.warm_state(
                batch.num_points, batch.num_feature_channels
            ).model
            with span("network.blocks", "network", len(sub)):
                logits, clouds1 = _replay_blocks(model, batch, tracer)
            block_logits.extend(logits)
            for layer, inputs in ((model.sa1, sampled), (model.sa2, clouds1)):
                for cloud in inputs:
                    picks = pick_random_centroids(
                        cloud, min(layer.num_centroids, cloud.num_points), seed=layer.seed
                    )
                    with span(f"datastructuring.gather_{layer.name}", "datastructuring"):
                        layer.gatherer.gather(
                            cloud, picks, min(layer.neighbors, cloud.num_points)
                        )
            with span("network.forward", "network", len(sub)):
                model.forward_batch(batch)
    return logits_equal(untraced, pipeline_logits) and logits_equal(untraced, block_logits)


def compute_replay(
    ctx: Context, session: Session, seconds: float, tracer: Tracer, out: Measurement
) -> None:
    """Replay fresh chunks for about ``seconds`` and reduce the spans to
    per-frame medians (one sample per chunk)."""
    chunk = ctx.workload.chunk
    rows: List[Dict[str, float]] = []
    forward_ms: List[float] = []
    start = now()
    while len(rows) < 3 or now() - start < seconds:
        tracer.trace = f"chunk-{len(rows)}"
        first = len(tracer.spans)
        out.attempted += chunk
        if not replay_chunk(session, ctx.take(chunk), tracer):
            out.failed += chunk
        grouped = tracer.seconds_by_name(first)
        rows.append({name: sum(values) * 1e3 / chunk for name, values in grouped.items()})
        per_sub = chunk / len(grouped["network.forward"])
        forward_ms.extend(v * 1e3 / per_sub for v in grouped["network.forward"])

    def median(name: str) -> float:
        return statistics.median(row.get(name, 0.0) for row in rows)

    def put_ms(metric: str, value: float) -> None:
        out.put(metric, value, "ms", len(rows))

    top_level = [sum(row.get(name, 0.0) for name in TOP_LEVEL) for row in rows]
    untraced = [row["untraced"] for row in rows]
    put_ms("session.coerce_ms", median("session.coerce"))
    if session.response_cache_size:
        put_ms("session.digest_ms", median("session.digest"))
    put_ms("session.residual_ms", statistics.median(u - t for u, t in zip(untraced, top_level)))
    put_ms("core.stack_ms", median("core.stack"))
    children = ("octree.build", "octree.table", "sampling.sample")
    put_ms(
        "core.pre_self_ms",
        statistics.median(
            row["core.preprocess"] - sum(row[name] for name in children) for row in rows
        ),
    )
    put_ms(
        "core.inf_self_ms",
        statistics.median(row["core.inference"] - row["network.forward"] for row in rows),
    )
    for name in children + ("core.preprocess", "core.inference", "network.forward"):
        layer, stage = name.split(".")
        put_ms(f"{layer}.{stage}_ms", median(name))
    out.put("network.forward_ms_p90", percentile(forward_ms, 90), "ms", len(forward_ms))
    for block in ("sa1", "sa2", "sa3", "fp1", "fp0", "head"):
        if f"network.{block}" in rows[0]:
            put_ms(f"network.{block}_ms", median(f"network.{block}"))
    for layer in ("sa1", "sa2"):
        put_ms(f"datastructuring.gather_{layer}_ms", median(f"datastructuring.gather_{layer}"))
    for metric, unit, values in (
        ("trace.coverage_share", "share", (t / u for t, u in zip(top_level, untraced))),
        ("trace.replay_over_untraced", "ratio", (r["pipeline"] / r["untraced"] for r in rows)),
        ("trace.blocks_over_forward", "ratio", (r["network.blocks"] / r["network.forward"] for r in rows)),
    ):
        out.put(metric, statistics.median(values), unit, len(rows))


def response_counts(responses: Sequence[FrameResponse], out: Measurement) -> None:
    """Work counts and modelled latencies read off the check frames' own
    responses (fixed frames for a seed, so these repeat exactly)."""
    count = len(responses)

    def put(metric: str, unit: str, values) -> None:
        out.put(metric, float(np.mean(list(values))), unit, count)

    results = [r.result for r in responses]
    put("octree.nodes", "count", (r.preprocessing.octree.stats.num_nodes for r in results))
    put("octree.depth", "levels", (r.preprocessing.octree.depth for r in results))
    for counter in ("node_visits", "distance_computations"):
        put(
            f"sampling.{counter}",
            "count",
            (getattr(r.preprocessing.sampling.counters, counter) for r in results),
        )
    gathers = [
        trace.gather
        for r in results
        for trace in r.inference.forward.sa_traces
        if trace.gather is not None
    ]
    stats = [g.info["run_stats"] for g in gathers]
    put("datastructuring.expansions_mean", "count", (s.mean_expansions() for s in stats))
    out.put(
        "datastructuring.sorted_per_neighbor",
        sum(s.total_sorted_candidates() for s in stats)
        / sum(g.neighbor_indices.size for g in gathers),
        "ratio",
        count,
    )
    put("network.mac_ops", "count", (r.inference.forward.total_mac_ops() for r in results))
    for phase in ("preprocessing", "inference"):
        put(
            f"modelled.{phase}_ms",
            "modelled_ms",
            (r.breakdown.seconds_for(phase) * 1e3 for r in results),
        )


# ----------------------------------------------------------------------
# Transport and serving-structure replays
# ----------------------------------------------------------------------
def transport_replay(ctx: Context, out: Measurement, rounds: int = 5) -> None:
    """Encode/decode a micro-batch of the check frames and their responses the
    way ``ProcessWorkerPool`` ships them; per-frame medians."""
    count = min(ctx.workload.chunk, CHECK_FRAMES)
    requests, responses = ctx.frames[:count], ctx.checked[:count]
    payload = {"responses": list(responses), "error": None}
    spans: Dict[str, List[float]] = {
        name: [] for name in ("encode_request", "decode_request", "encode_response", "decode_response")
    }
    with SharedMemoryArena(prefix=f"e2e-{ctx.workload.name[:8]}") as arena:
        for _ in range(rounds):
            t0 = now()
            wire = encode_requests(requests, arena=arena)
            t1 = now()
            decoded = decode_requests(wire)
            t2 = now()
            back = encode_payload(payload, arena=arena)
            t3 = now()
            returned = decode_payload(back)
            t4 = now()
            for name, seconds in zip(spans, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                spans[name].append(seconds * 1e3 / count)
            for segment in (wire.segment, back.segment):
                if segment is not None:
                    arena.release(segment)
        intact = all(
            np.array_equal(a.cloud.points, b.cloud.points)
            for a, b in zip(requests, decoded)
        ) and logits_equal(
            [r.result.inference.forward.logits for r in responses],
            [r.result.inference.forward.logits for r in returned["responses"]],
        )
    out.attempted += count
    out.failed += 0 if intact else count
    for name, values in spans.items():
        out.put(f"cluster.{name}_ms", statistics.median(values), "ms", rounds)
    out.put("cluster.request_mb", wire.total_bytes / count / 1e6, "MB", 1)
    out.put("cluster.response_mb", back.total_bytes / count / 1e6, "MB", 1)


def structure_loops(ctx: Context, session: Session, out: Measurement, rounds: int = 2000) -> None:
    """Admission queue and scheduler alone, on a manual clock: the cost of the
    data structures without threads, waits or compute."""
    request = ctx.frames[0]
    clock = ManualClock()
    queue = AdmissionQueue(capacity=4096, clock=clock)
    t0 = now()
    for _ in range(rounds):
        queue.submit(request)
        queue.pop(timeout=0)
    out.put("serving.queue_submit_pop_us", (now() - t0) * 1e6 / rounds, "us", rounds)
    scheduler = MicroBatchScheduler(
        shape_key=lambda r: session.shape_key(r.cloud),
        batch_rows_budget=session.batch_rows_budget,
        clock=clock,
    )
    entries = [queue.submit(request) for _ in range(rounds)]
    t0 = now()
    for entry in entries:
        scheduler.add(entry)
        scheduler.ready()
    out.put("serving.scheduler_add_ready_us", (now() - t0) * 1e6 / rounds, "us", rounds)


def direct_loop(ctx: Context, session: Session, seconds: float) -> Tuple[float, int]:
    """Frames/s of one session calling ``run_batch`` on chunks of 8."""
    done, start, elapsed = 0, now(), 0.0
    while elapsed < seconds:
        done += len(session.run_batch(ctx.take(8)).responses)
        elapsed = now() - start
    return done / elapsed, done


# ----------------------------------------------------------------------
def traced_pass(ctx: Context, seconds: float, trace_path: Path) -> Measurement:
    """Everything ``--trace 1`` reports for one workload."""
    out = Measurement()
    tracer = Tracer(ctx.workload.name)
    replay_seconds = seconds
    session = ctx.session
    if ctx.server is not None:
        served = measure(ctx, seconds * 0.4)
        out.attempted, out.failed = served.attempted, served.failed
        for record in serving_metrics(ctx, served, out):
            request = f"request-{record.sequence}"
            tracer.add("serving.queue_wait", "serving", record.enqueued_at, record.dispatched_at, request)
            tracer.add("serving.service", "serving", record.dispatched_at, record.completed_at, request)
        ctx.close()  # free the cores before timing the layers
        session = ctx.workload.session_factory(ctx.smoke)()
        session.run_batch(ctx.take(ctx.workload.chunk))  # build the model once
        replay_seconds = seconds * 0.45
        if ctx.workload.kind == "open":
            fps, frames = direct_loop(ctx, session, seconds * 0.15)
            out.put("serving.direct_frames_per_s", fps, "1/s", frames)
            out.put("serving.served_over_direct", served.metrics["frames_per_s"][0] / fps, "ratio", frames)
    assert session is not None
    compute_replay(ctx, session, replay_seconds, tracer, out)
    out.put(
        "session.cache_hit_share",
        session.stats()["response_cache_hits"] / max(1, session.frames_processed),
        "share",
        session.frames_processed,
    )
    response_counts(ctx.checked, out)
    transport_replay(ctx, out)
    structure_loops(ctx, session, out)
    tracer.write(trace_path)
    return out
