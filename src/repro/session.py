"""Session-based pipeline API: warm state + request/response framing.

A :class:`Session` is the entry point of the pipeline and owns its warm
state:

* the **Inference Engine's model cache** keyed by ``(task, input_size,
  feature_channels)`` -- repeated :meth:`Session.run` calls on same-shaped
  frames reuse the constructed network and gatherer objects;
* the **Pre-processing Engine's sampler cache** keyed by octree depth;
* an optional **response cache** keyed by frame content, so a repeated frame
  (duplicate requests, a stalled sensor replaying its last frame, retries in
  a serving fleet) is answered without recomputing anything.

Requests and responses are explicit dataclasses (:class:`FrameRequest`,
:class:`FrameResponse`, :class:`BatchResult`).  :meth:`Session.run_batch`
is the one execution path: it groups same-shaped frames so each shape's
warm-up is paid once and the group travels the engines as a stack;
:meth:`Session.run` is a batch of one.  A session is synchronous and knows
nothing of serving: asynchronous callers go through
:class:`repro.serving.FrameServer`, which runs warm sessions behind one
admission queue -- ``FrameServer(session_factory=lambda: session,
num_workers=1)`` serves an existing session.  Components are referenced by
their registry names (``sampler="ois"``, ``accelerator="hgpcn"``), which
keeps the session constructor free of concrete imports::

    from repro import Session
    session = Session(task="semantic_segmentation", sampler="ois")
    response = session.run(cloud)
    batch = session.run_batch(dataset)
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import registry
from repro.core.config import HgPCNConfig
from repro.core.engine import InferenceEngine, PreprocessingEngine
from repro.core.framebatch import FrameBatch
from repro.core.metrics import LatencyBreakdown
from repro.core.pipeline import EndToEndResult, SequenceResult
from repro.datasets.base import Frame, PointCloudDataset
from repro.datasets.lidar import LidarSensorModel
from repro.geometry.pointcloud import PointCloud
from repro.network.backends import resolve_backend

#: Anything :meth:`Session.run` accepts as a frame.
FrameLike = Union["FrameRequest", Frame, PointCloud]

#: Cap on the stacked down-sampled points per batch-native dispatch, the
#: same for every compute backend: a shape group whose frames down-sample
#: to N points runs in sub-batches of ``max(1, budget // N)`` frames -- one
#: frame per dispatch at N >= 512, four at N = 128.  Frames are stacked only
#: while the stacked set-abstraction operand still fits one of the backend's
#: cache-sized blocks: stacking saves python-level dispatches on small
#: frames, and past a block it only grows memory.  Responses are
#: bit-identical for every budget (sub-batching changes operand shapes, not
#: results).
DEFAULT_BATCH_ROWS_BUDGET = 512


@dataclass(frozen=True)
class FrameRequest:
    """One frame submitted to a :class:`Session`.

    Construction is the input boundary: a frame with no points or with a
    NaN / inf coordinate or feature raises :class:`ValueError` here, naming
    the frame, instead of failing inside a kernel or a serving worker.
    """

    cloud: PointCloud
    frame_id: str = "frame"
    timestamp: Optional[float] = None

    def __post_init__(self) -> None:
        cloud = self.cloud
        if cloud.num_points == 0:
            defect = "has no points"
        elif not np.isfinite(cloud.points).all():
            defect = "has a non-finite (NaN or inf) coordinate"
        elif cloud.features is not None and not np.isfinite(cloud.features).all():
            defect = "has a non-finite (NaN or inf) feature"
        else:
            return
        raise ValueError(f"frame {self.frame_id!r} {defect}")

    @classmethod
    def from_frame(cls, frame: Frame) -> "FrameRequest":
        return cls(
            cloud=frame.cloud, frame_id=frame.frame_id, timestamp=frame.timestamp
        )

    @classmethod
    def coerce(cls, obj: FrameLike, index: int = 0) -> "FrameRequest":
        """Wrap a raw cloud or dataset frame into a request."""
        if isinstance(obj, FrameRequest):
            return obj
        if isinstance(obj, Frame):
            return cls.from_frame(obj)
        if isinstance(obj, PointCloud):
            return cls(cloud=obj, frame_id=f"frame{index:04d}")
        raise TypeError(
            f"expected FrameRequest, Frame, or PointCloud; got {type(obj).__name__}"
        )

    def content_digest(self) -> str:
        """Content hash of the frame's points and features."""
        hasher = hashlib.sha1()
        hasher.update(np.ascontiguousarray(self.cloud.points).tobytes())
        if self.cloud.features is not None:
            hasher.update(np.ascontiguousarray(self.cloud.features).tobytes())
        return hasher.hexdigest()


@dataclass
class FrameResponse:
    """Result of one :meth:`Session.run` call.

    A response carries the answer -- logits, sampled indices, gather rows,
    counters, the modelled breakdown (~0.5 MB on a 100k-point LiDAR frame)
    -- plus a reference to the caller's own request.  It does not carry the
    octree or Octree-Table; for those call
    ``session.preprocessing_engine.process(request.cloud)``, which is
    deterministic and bit-identical to what the response was computed from.
    """

    request: FrameRequest
    result: EndToEndResult
    #: Whether the inference network came from the warm model cache.
    warm: bool = False
    #: Whether the whole response came from the content-addressed cache.
    cached: bool = False

    @property
    def frame_id(self) -> str:
        return self.result.frame_id

    def predicted_labels(self) -> np.ndarray:
        return self.result.inference.predicted_labels()

    def total_seconds(self) -> float:
        return self.result.total_seconds()


@dataclass
class BatchResult:
    """Result of one :meth:`Session.run_batch` call.

    ``responses`` preserves submission order; ``groups`` records how many
    frames shared each warm-state shape key, i.e. how well the batch
    amortised its warm-up.
    """

    responses: List[FrameResponse]
    groups: Dict[Tuple[str, int, int], int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self):
        return iter(self.responses)

    def results(self) -> List[EndToEndResult]:
        return [response.result for response in self.responses]

    def warm_fraction(self) -> float:
        """Fraction of frames served from warm model state or the cache."""
        if not self.responses:
            return 0.0
        served_warm = sum(1 for r in self.responses if r.warm or r.cached)
        return served_warm / len(self.responses)

    def total_seconds(self) -> float:
        """Sum of the modelled per-frame latencies."""
        return float(sum(r.total_seconds() for r in self.responses))


class Session:
    """A warm, reusable pipeline instance (the pipeline entry point).

    Parameters
    ----------
    config:
        Full :class:`~repro.core.config.HgPCNConfig`; defaults match the
        paper's prototype.
    task:
        Table I task name ("classification", "part_segmentation",
        "semantic_segmentation").
    sampler:
        Registry name of the down-sampling method (``available("sampler")``).
    accelerator:
        Registry name of the inference platform model, or a constructed
        :class:`~repro.accelerators.base.InferenceAccelerator` instance.
    response_cache_size:
        Capacity of the content-addressed response cache; ``0`` disables it.
        Each entry retains the frame's :class:`EndToEndResult` (the answer,
        not the octree) and its request's raw cloud, so size the cache to
        the frame scale -- or disable it -- when serving paper-scale
        million-point frames.
    backend:
        Registry name of the compute backend executing the network layers
        (``available("backend")``), or ``None`` for the process default
        (``REPRO_BACKEND`` env when set, else ``fused``; ``numpy`` is the
        bit-identity reference).  The backend is part of the warm-model
        cache key and is inherited by serving workers built from this
        session's options.
    """

    #: Stacked down-sampled points per batch-native dispatch
    #: (:data:`DEFAULT_BATCH_ROWS_BUDGET`); serving schedulers cap their
    #: micro-batches with the same value.
    batch_rows_budget = DEFAULT_BATCH_ROWS_BUDGET

    def __init__(
        self,
        config: Optional[HgPCNConfig] = None,
        task: str = "semantic_segmentation",
        sampler: str = "ois",
        accelerator: Union[str, Any] = "hgpcn",
        response_cache_size: int = 64,
        backend: Optional[str] = None,
    ):
        self.config = config if config is not None else HgPCNConfig()
        self.task = task
        if backend is not None:
            # Fail fast on typos: resolve through the registry up front
            # rather than at the first forward pass.
            registry.get_factory("backend", backend)
        if isinstance(accelerator, str):
            accelerator = registry.create("accelerator", accelerator)
        self.preprocessing_engine = PreprocessingEngine(
            config=self.config, sampler_name=sampler
        )
        self.inference_engine = InferenceEngine(
            config=self.config,
            accelerator=accelerator,
            task=task,
            backend=backend,
        )
        self.backend = resolve_backend(backend).name
        self.response_cache_size = max(0, int(response_cache_size))
        self._response_cache: "OrderedDict[str, FrameResponse]" = OrderedDict()
        self.frames_processed = 0
        self.cache_hits = 0

    # -- warm-state introspection --------------------------------------
    @property
    def model_builds(self) -> int:
        """How many networks this session constructed (cache misses)."""
        return self.inference_engine.model_builds

    def warm_keys(self) -> Tuple[Tuple[str, int, int, str], ...]:
        """Shape keys currently held warm by the inference engine."""
        return self.inference_engine.warm_keys()

    def shape_key(self, cloud: PointCloud) -> Tuple[str, int, int]:
        """The warm-state key ``cloud`` will resolve to after down-sampling."""
        sampled_size = min(
            self.config.preprocessing.num_samples, cloud.num_points
        )
        return (self.task, sampled_size, cloud.num_feature_channels)

    def stats(self) -> Dict[str, Any]:
        """Serving counters for monitoring."""
        return {
            "frames_processed": self.frames_processed,
            "model_builds": self.model_builds,
            "warm_shapes": len(self.warm_keys()),
            "response_cache_entries": len(self._response_cache),
            "response_cache_hits": self.cache_hits,
            "backend": self.backend,
        }

    # -- single-frame path ---------------------------------------------
    def run(self, frame: FrameLike, frame_id: Optional[str] = None) -> FrameResponse:
        """Process one frame: :meth:`run_batch` with a batch of one."""
        request = FrameRequest.coerce(frame, index=self.frames_processed)
        if frame_id is not None:
            request = replace(request, frame_id=frame_id)
        return self.run_batch([request]).responses[0]

    # -- batched path ---------------------------------------------------
    def run_batch(
        self,
        frames: Sequence[FrameLike],
        batch_size: Optional[int] = None,
    ) -> BatchResult:
        """Process many frames, grouping same-shaped ones.

        Frames that will down-sample to the same ``(task, input_size,
        channels)`` shape form one dispatch group: the group's network
        construction is paid once and its frames travel the engines as
        :class:`~repro.core.framebatch.FrameBatch` stacks (one octree-build
        kernel sequence, one warm model, one stacked network forward per
        layer).  ``responses`` comes back in submission order regardless.

        Responses -- logits, gather rows, stage counters, warm/cached
        flags, and response-cache behaviour (hits, LRU order, evictions) --
        are bit-identical to feeding the same frames one at a time, however
        they are chunked or stacked.  Results are value objects and must be
        treated as read-only: a response served from the content cache
        shares its :class:`EndToEndResult` (bar the rewritten ``frame_id``)
        with the original computation and with any later hit on the same
        content.  This method is the single coercion site for its frames:
        :meth:`run_sequence` delegates here without pre-wrapping.

        ``batch_size`` chunks the frame stream: each consecutive chunk of at
        most ``batch_size`` frames is dispatched as its own batch (shape
        groups never span chunks; ``batch_size=1`` is frame-at-a-time
        execution), and the chunk results are merged back into one
        :class:`BatchResult` in submission order.  ``None`` (the default)
        dispatches everything as one batch; anything else must be a
        positive integer -- zero and negative values are rejected here
        rather than crashing deep inside the group planner.
        """
        if batch_size is not None:
            if (
                isinstance(batch_size, bool)
                or not isinstance(batch_size, int)
                or batch_size < 1
            ):
                raise ValueError(
                    f"batch_size must be a positive integer or None, got "
                    f"{batch_size!r}"
                )
            frames = list(frames)
            if batch_size < len(frames):
                merged: List[FrameResponse] = []
                groups: Dict[Tuple[str, int, int], int] = {}
                for start in range(0, len(frames), batch_size):
                    chunk = self.run_batch(frames[start : start + batch_size])
                    merged.extend(chunk.responses)
                    for key, count in chunk.groups.items():
                        groups[key] = groups.get(key, 0) + count
                return BatchResult(responses=merged, groups=groups)
        requests = [
            FrameRequest.coerce(frame, index=self.frames_processed + i)
            for i, frame in enumerate(frames)
        ]
        grouped: "OrderedDict[Tuple[str, int, int], List[int]]" = OrderedDict()
        for i, request in enumerate(requests):
            grouped.setdefault(self.shape_key(request.cloud), []).append(i)

        # Every slot is assigned exactly once (the dispatcher returns or
        # raises), keeping responses 1:1 with the submitted frames.
        responses: List[FrameResponse] = [None] * len(requests)  # type: ignore[list-item]
        for indices in grouped.values():
            self._dispatch_group(requests, indices, responses)
        return BatchResult(
            responses=responses,
            groups={key: len(indices) for key, indices in grouped.items()},
        )

    def _dispatch_group(
        self,
        requests: List[FrameRequest],
        indices: List[int],
        responses: List[FrameResponse],
    ) -> None:
        """Process one shape group.

        The response cache behaves as if the group's frames arrived one at
        a time (check -> compute -> insert -> evict, frame by frame), and
        that interleaving is observable: a duplicate frame hits the cache
        only if its first occurrence has not been evicted by the frames in
        between.  So the dispatch first *simulates* that cache-op sequence
        to decide which frames compute, then runs all computing frames
        through the engines as stacks, and finally replays the real cache
        operations in the original frame order.
        """
        use_cache = self.response_cache_size > 0
        digests: Dict[int, str] = {}
        plan: List[Tuple[int, bool]] = []  # (request index, is_cache_hit)
        if use_cache:
            simulated = list(self._response_cache.keys())
            simulated_set = set(simulated)
            for i in indices:
                digest = requests[i].content_digest()
                digests[i] = digest
                if digest in simulated_set:
                    simulated.remove(digest)
                    simulated.append(digest)
                    plan.append((i, True))
                else:
                    plan.append((i, False))
                    simulated.append(digest)
                    simulated_set.add(digest)
                    while len(simulated) > self.response_cache_size:
                        evicted = simulated.pop(0)
                        simulated_set.discard(evicted)
        else:
            plan = [(i, False) for i in indices]

        compute_indices = [i for i, hit in plan if not hit]

        # Sub-batch the computing frames so the stacked working set stays
        # cache-sized (see ``batch_rows_budget``); every frame of the group
        # down-samples to the same point count, so the sub-batch size is a
        # constant frame count.
        pre_results: Dict[int, Any] = {}
        inference_results: Dict[int, Any] = {}
        if compute_indices:
            sampled_size = self.shape_key(requests[compute_indices[0]].cloud)[1]
            frames_per_sub = max(1, self.batch_rows_budget // max(1, sampled_size))
            for start in range(0, len(compute_indices), frames_per_sub):
                self._compute_sub_batch(
                    requests,
                    compute_indices[start : start + frames_per_sub],
                    pre_results,
                    inference_results,
                )

        # Assembly: replay the cache operations in frame order.
        for i, hit in plan:
            request = requests[i]
            if hit:
                cached_response = self._response_cache[digests[i]]
                self._response_cache.move_to_end(digests[i])
                self.cache_hits += 1
                self.frames_processed += 1
                result = cached_response.result
                if result.frame_id != request.frame_id:
                    result = replace(result, frame_id=request.frame_id)
                responses[i] = FrameResponse(
                    request=request, result=result, warm=True, cached=True
                )
                continue
            pre = pre_results[i]
            inf = inference_results[i]
            breakdown = LatencyBreakdown()
            breakdown.add("preprocessing", pre.total_seconds())
            breakdown.add("inference", inf.total_seconds())
            result = EndToEndResult(
                frame_id=request.frame_id,
                preprocessing=pre,
                inference=inf,
                breakdown=breakdown,
            )
            response = FrameResponse(request=request, result=result, warm=inf.warm)
            if use_cache:
                self._response_cache[digests[i]] = response
                while len(self._response_cache) > self.response_cache_size:
                    self._response_cache.popitem(last=False)
            self.frames_processed += 1
            responses[i] = response

    def _compute_sub_batch(
        self,
        requests: List[FrameRequest],
        indices: List[int],
        pre_results: Dict[int, Any],
        inference_results: Dict[int, Any],
    ) -> None:
        """Run one budget-sized sub-batch through both engines.

        Pre-processing batches per raw shape (frames of one dispatch group
        share the *down-sampled* shape but may differ in raw point count);
        inference runs the whole sub-batch against one warm model.  Each
        frame's engine output is reduced to its response-side summary as
        soon as it is produced (inference only needs the sampled cloud), so
        the octrees and tables never outlive their ``process_batch`` call.
        """
        raw_groups: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
        for i in indices:
            cloud = requests[i].cloud
            raw_groups.setdefault(
                (cloud.num_points, cloud.num_feature_channels), []
            ).append(i)
        for raw_indices in raw_groups.values():
            batch = FrameBatch.from_clouds(
                [requests[i].cloud for i in raw_indices]
            )
            for i, pre in zip(
                raw_indices, self.preprocessing_engine.process_batch(batch)
            ):
                pre_results[i] = pre.summary()

        inference_batch = FrameBatch.from_clouds(
            [pre_results[i].sampled for i in indices]
        )
        for i, inference in zip(
            indices, self.inference_engine.process_batch(inference_batch)
        ):
            inference_results[i] = inference

    # -- sequence / real-time path --------------------------------------
    def run_sequence(
        self,
        frames: Union[Sequence[FrameLike], PointCloudDataset],
        sensor: Optional[LidarSensorModel] = None,
        pipelined: bool = False,
    ) -> SequenceResult:
        """Process a frame sequence and evaluate real-time behaviour.

        Frames go through :meth:`run_batch` (coerced exactly once, there);
        the per-frame modelled latencies are then queued through the
        sensor's arrival schedule -- ``sensor`` when given, else the rate
        the frames' timestamps imply -- to decide whether the service keeps
        up with the data generation rate, the Section VII-E criterion.

        ``pipelined`` models cross-frame overlap: the Octree-build Unit (CPU)
        prepares frame ``i+1`` while the FPGA engines process frame ``i``,
        which the shared-memory platform permits because the two phases use
        disjoint resources.  Functional outputs are unchanged; only the
        latency seen by the arrival queue drops to the slower of the two
        phases per frame.
        """
        batch = self.run_batch(list(frames))
        requests = [response.request for response in batch.responses]
        sequence = SequenceResult(
            frame_results=batch.results(), pipelined=pipelined
        )

        if sensor is None:
            timestamps = [
                r.timestamp for r in requests if r.timestamp is not None
            ]
            if len(timestamps) >= 2:
                deltas = np.diff(sorted(timestamps))
                deltas = deltas[deltas > 0]
                if deltas.size:
                    sensor = LidarSensorModel(
                        frame_rate_hz=float(1.0 / deltas.mean())
                    )
        if sensor is not None:
            sequence.service_trace = sensor.simulate_service(
                sequence.frame_latencies()
            )
        return sequence
