"""Warm-session worker pool behind one bounded waiting room.

:class:`FrameServer` owns the full asynchronous serving path:

* callers :meth:`~FrameServer.submit` frames and get
  :class:`concurrent.futures.Future` objects back; an admitted request
  waits in the admission queue and then in the
  :class:`~repro.serving.scheduler.MicroBatchScheduler`'s shape groups --
  one waiting room under one bound (``queue_capacity``), where TTLs,
  priorities and admission shedding reach every request not yet started;
* a micro-batch is formed only when something can start it *now*:
  whatever is about to run one calls the hand-off
  (:meth:`FrameServer._next_batch`), which sweeps the queue into the
  groups, sheds what has expired, and returns the first group whose
  trigger has fired -- or waits for the next trigger, arrival or close;
* a :class:`~repro.serving.cluster.pool.WorkerPool` runs the batches on
  warm :class:`~repro.session.Session` instances and resolves the
  per-request futures in admission order.  ``execution="thread"`` (the
  default) runs ``num_workers`` worker threads, each owning one warm
  session built by ``session_factory`` and pulling its own batches;
  ``execution="process"`` runs the same contract across fork-spawned
  worker processes with shared-memory batch transport
  (:class:`~repro.serving.cluster.pool.ProcessWorkerPool`) -- real
  multi-core overlap instead of GIL time-slicing.

Work the server will not serve is refused in a typed way, never dropped:
``QueueFull`` raised at the door (the default ``admission="reject"``), or
a future resolved with :class:`~repro.serving.policy.LoadShed`
(``admission="shed"``) or :class:`~repro.serving.resilience.DeadlineExceeded`
(TTL).  A request's priority is the rank of its
:class:`~repro.serving.policy.ServingPolicy` class.

Determinism contract: every per-frame computation in the pipeline seeds its
RNG per call (samplers, gatherers, network layers), so a frame's response
payload -- logits, sampled indices, gather rows, counters, modelled
latencies -- depends only on the frame and the session configuration, never
on which worker served it, which process that worker was, or which
companions shared its micro-batch.  :func:`response_signature` captures
exactly that order-invariant payload; the soak gate and the serving
benchmarks compare it against a sequential :meth:`Session.run_batch` run.
What *does* depend on scheduling is the warm/cached flags and any
per-worker response cache, which is why signatures exclude them and serving
sessions are normally built with ``response_cache_size=0``.

Shutdown is graceful by default: :meth:`shutdown` closes the admission
queue, the hand-off flushes the pending groups (trigger ``"drain"``) to the
workers and then tells them the stream has ended -- no admitted request is
dropped.  ``drain=False`` cancels what has not started instead.
Shutdown is idempotent and exception-safe: any number of concurrent or
repeated calls (double shutdown, ``__exit__`` racing an explicit call,
shutdown after a worker crash) all converge on one drain and return the
same final snapshot.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.serving.cluster.pool import (
    ProcessWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
)
from repro.serving.faults import FaultPlan
from repro.serving.metrics import Clock, ServingMetrics
from repro.serving.policy import LoadShed, ServingPolicy
from repro.serving.queue import (
    AdmissionQueue,
    QueueClosed,
    QueuedRequest,
    QueueFull,
    SubmitOptions,
)
from repro.serving.resilience import DeadlineExceeded, RetryPolicy
from repro.serving.scheduler import MicroBatchScheduler, MicroBatch
from repro.session import FrameLike, FrameRequest, FrameResponse, Session

#: Recognised values of ``FrameServer(execution=...)``.
EXECUTION_MODES = ("thread", "process")


def response_signature(response: FrameResponse) -> Tuple[Any, ...]:
    """The order-invariant payload of a response, for bit-identity checks.

    Covers logits, sampled indices, per-SA-layer gather rows, the data
    structuring counters, and the modelled latency breakdown.  Excludes the
    warm/cached flags, which legitimately depend on which worker served the
    frame and what it served before.
    """
    forward = response.result.inference.forward
    return (
        response.result.frame_id,
        forward.logits,
        response.result.preprocessing.sampling.indices,
        tuple(
            trace.gather.neighbor_indices
            for trace in forward.sa_traces
            if trace.gather is not None
        ),
        dataclasses.asdict(response.result.inference.workload.data_structuring),
        tuple(response.result.breakdown.as_dict().items()),
    )


def signatures_equal(a: Any, b: Any) -> bool:
    """Deep equality over signature tuples (arrays compared elementwise)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and len(a) == len(b)
            and all(signatures_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(signatures_equal(a[k], b[k]) for k in a)
        )
    return bool(a == b)


class FrameServer:
    """Asynchronous point-cloud serving over a pool of warm sessions.

    Parameters
    ----------
    session_factory:
        Zero-argument callable building one :class:`Session` per worker.
        Factories must return *distinct* sessions for distinct workers
        (sessions are not thread-safe); for deterministic cross-worker
        results, build them with identical configs and
        ``response_cache_size=0``.  ``session_factory=lambda: session,
        num_workers=1`` serves one existing session on one thread worker.
    num_workers:
        Worker threads or processes (one warm session each).
    execution:
        ``"thread"`` (default) or ``"process"``.  Process workers need the
        ``fork`` start method; shared memory is used for batch transport
        when available, with an inline fallback otherwise.
    max_batch_size / max_wait_seconds:
        Micro-batch triggers (see
        :class:`~repro.serving.scheduler.MicroBatchScheduler`).  The size
        trigger is further capped by :attr:`Session.batch_rows_budget`, so
        the scheduler never forms a batch a session would split.
    queue_capacity:
        Bound on requests admitted but not yet started -- queued or
        grouped (backpressure above it).  A full queue sheds its expired
        entries (TTL) before rejecting.
    clock:
        Injectable monotonic clock shared by every serving component.
    faults:
        Optional seeded :class:`~repro.serving.faults.FaultPlan` injected
        into the worker pool (chaos testing).  Process pools honour kill /
        slow / poison faults; thread pools honour slow only.
    retry_policy:
        Crash-retry policy for process pools
        (:class:`~repro.serving.resilience.RetryPolicy`; default 3
        attempts with capped seeded-jitter backoff).  Pass
        ``RetryPolicy(max_attempts=1)`` to fail on the first crash.
    policy:
        Optional :class:`~repro.serving.policy.ServingPolicy`: priority
        classes and SLO-aware admission shedding.  Without one every
        request ranks equal (FIFO per shape, ``QueueFull`` backpressure).
    """

    def __init__(
        self,
        session_factory: Callable[[], Session],
        num_workers: int = 1,
        max_batch_size: int = 8,
        max_wait_seconds: float = 0.005,
        queue_capacity: int = 256,
        clock: Clock = time.monotonic,
        name: str = "serving",
        execution: str = "thread",
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        policy: Optional[ServingPolicy] = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        self.session_factory = session_factory
        self.num_workers = int(num_workers)
        self.execution = execution
        self.name = name
        self.clock = clock
        self.faults = faults
        self.retry_policy = retry_policy
        self.policy = policy
        self.metrics = ServingMetrics()
        #: Shed admission turns the bound's ``QueueFull`` into steal/``LoadShed``
        #: and may tighten the bound itself (``max_backlog``, shed-only).
        self._shed_mode = policy is not None and policy.admission == "shed"
        if policy is not None and policy.max_backlog is not None:
            queue_capacity = min(queue_capacity, policy.max_backlog)
        self.pool: Optional[WorkerPool] = None
        #: The waiting room: the queue, then the scheduler's shape groups.
        self.scheduler = MicroBatchScheduler(
            shape_key=lambda request: self.pool.shape_key(request.cloud),
            max_batch_size=max_batch_size,
            max_wait_seconds=max_wait_seconds,
            batch_rows_budget=Session.batch_rows_budget,
            clock=clock,
            policy=policy,
        )
        self.admission = AdmissionQueue(
            capacity=queue_capacity,
            clock=clock,
            on_shed=self._shed_entry,
            held=lambda: self.scheduler.pending_count,
        )
        #: Serialises the hand-off: one taker at a time sweeps, sheds and
        #: waits; the others queue behind it for the next batch.
        self._handoff = threading.Lock()
        #: Numbers raw clouds submitted without a frame_id so each gets a
        #: distinct id *within this server*.  The ids are not coordinated
        #: with the synchronous path's frames_processed numbering (and
        #: restart with every new server); pass FrameRequests with explicit
        #: frame_ids when ids must be stable across paths.
        self._submit_counter = itertools.count()
        self._started = False
        self._stopping = False
        self._stopped = False
        self._discard = False
        self._final_snapshot: Optional[dict] = None
        self._stop_event = threading.Event()
        self._lifecycle_lock = threading.Lock()

    # -- life cycle -----------------------------------------------------
    def start(self) -> "FrameServer":
        with self._lifecycle_lock:
            if self._started:
                return self
            if self._stopped or self._stopping:
                raise RuntimeError("FrameServer cannot be restarted")
            pool_cls = (
                ProcessWorkerPool if self.execution == "process" else ThreadWorkerPool
            )
            pool: WorkerPool = pool_cls(
                session_factory=self.session_factory,
                num_workers=self.num_workers,
                metrics=self.metrics,
                clock=self.clock,
                name=self.name,
                next_batch=self._next_batch,
                shed_entry=self._shed_entry,
                faults=self.faults,
                retry_policy=self.retry_policy,
            )
            # Workers pull from here on, but find nothing to take: no
            # request is admitted before this method returns.
            pool.start()
            self.pool = pool
            self._started = True
            return self

    def __enter__(self) -> "FrameServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    @property
    def running(self) -> bool:
        """Started and not (yet) shutting down."""
        with self._lifecycle_lock:
            return self._started and not self._stopping and not self._stopped

    @property
    def sessions(self) -> List[Session]:
        """The warm sessions of a *thread* pool (empty for process pools,
        whose sessions live in the worker processes)."""
        if isinstance(self.pool, ThreadWorkerPool):
            return self.pool.sessions
        return []

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> dict:
        """Stop serving and return the final metrics snapshot.

        ``drain=True`` (the default) completes every admitted request first;
        ``drain=False`` cancels whatever has not started yet.  ``timeout``
        bounds the whole wait, however many workers are joined.
        Idempotent: every call (including concurrent ones) returns the same
        final snapshot; only the first performs the drain.
        """
        with self._lifecycle_lock:
            if self._stopped:
                return (
                    self._final_snapshot
                    if self._final_snapshot is not None
                    else self.metrics.snapshot()
                )
            if not self._started and not self._stopping:
                # Never ran: close the front door and freeze the counters.
                self._stopped = True
                self.admission.close()
                self._final_snapshot = self.metrics.snapshot()
                self._stop_event.set()
                return self._final_snapshot
            if self._stopping:
                follower = True
            else:
                follower = False
                self._stopping = True
                self._discard = not drain
        if follower:
            # Another caller owns the drain; wait for it rather than
            # double-joining the same threads.
            self._stop_event.wait(timeout)
            with self._lifecycle_lock:
                snapshot = self._final_snapshot
            return snapshot if snapshot is not None else self.metrics.snapshot()
        self.admission.close()
        try:
            if self.pool is not None:
                self.pool.join(timeout)
        finally:
            # Even if a join raised, leave the server in a terminal state
            # with a snapshot cached for every later caller.
            snapshot = self.metrics.snapshot()
            with self._lifecycle_lock:
                self._stopped = True
                self._final_snapshot = snapshot
            self._stop_event.set()
        return snapshot

    # -- request entry ---------------------------------------------------
    def submit(
        self,
        frame: FrameLike,
        frame_id: Optional[str] = None,
        options: Optional[SubmitOptions] = None,
    ):
        """Admit one frame; returns a future resolving to a FrameResponse.

        This is the one serving entry point.  Per-request knobs travel as
        one :class:`~repro.serving.queue.SubmitOptions`.  ``options.ttl``
        (seconds, > 0) bounds how long the request may wait before it
        starts: past it, the future resolves with
        :class:`~repro.serving.resilience.DeadlineExceeded` instead of
        being served (never a silent drop).
        ``options.class_name`` selects the serving policy class, whose rank
        is the request's priority (without a policy it only labels the
        metrics).

        Raises :class:`~repro.serving.queue.QueueFull` under backpressure
        and :class:`~repro.serving.queue.QueueClosed` after shutdown.
        Under ``admission="shed"`` the server never raises ``QueueFull``:
        a shed request gets a future resolved with
        :class:`~repro.serving.policy.LoadShed` instead -- a typed result.
        """
        if not self._started:
            self.start()
        options = SubmitOptions.coerce(options)
        request = FrameRequest.coerce(frame, index=next(self._submit_counter))
        if frame_id is not None:
            request = dataclasses.replace(request, frame_id=frame_id)
        if self.policy is not None:
            cls = self.policy.resolve(options.class_name)
            class_name, priority = cls.name, cls.priority
        else:
            class_name, priority = options.class_name or "default", 0
        # Count the submission before the entry becomes visible to the
        # scheduler: recording it afterwards opens a window where a fast
        # worker completes the request first and a live stats() snapshot
        # reports completed > submitted (negative in_flight).
        self.metrics.record_submitted()
        # One check, two outcomes: the queue's bound counts everything
        # admitted but not yet started.  Reject mode surfaces ``QueueFull``;
        # shed mode makes room by evicting strictly lower-priority waiting
        # work, else sheds the arrival itself -- typed, never raised.
        while True:
            try:
                return self.admission.submit(
                    request,
                    options=options,
                    priority=priority,
                    class_name=class_name,
                ).future
            except QueueFull:
                if not self._shed_mode:
                    self.metrics.record_admission_failed()
                    self.metrics.record_rejected()
                    raise
                victim = self.admission.steal_lowest(priority)
                if victim is None:
                    victim = self.scheduler.steal_lowest(priority)
                if victim is None:
                    self.metrics.record_load_shed(class_name)
                    return self._typed_failure(
                        LoadShed(
                            f"request {request.frame_id!r} shed at admission "
                            f"(backlog at {self.admission.capacity})"
                        )
                    )
                self._load_shed_entry(victim)
            except QueueClosed:
                self.metrics.record_admission_failed()
                raise

    def _waiting_depth(self) -> int:
        """Requests admitted but not yet started: the waiting room."""
        return len(self.admission) + self.scheduler.pending_count

    @staticmethod
    def _typed_failure(exc: BaseException) -> "Future":
        """A future pre-resolved with a typed serving exception."""
        future: "Future" = Future()
        future.set_running_or_notify_cancel()
        future.set_exception(exc)
        return future

    def _shed_entry(self, entry: QueuedRequest, now: Optional[float] = None) -> None:
        """Resolve one expired entry with ``DeadlineExceeded`` (typed, counted)."""
        if now is None:
            now = self.clock()
        if entry.future.set_running_or_notify_cancel():
            entry.future.set_exception(
                DeadlineExceeded(
                    f"request {entry.request.frame_id!r} missed its deadline "
                    f"by {now - (entry.deadline or now):.3f}s before dispatch"
                )
            )
        self.metrics.record_shed(entry.class_name)

    def _load_shed_entry(self, entry: QueuedRequest) -> None:
        """Resolve one admission-shed victim with ``LoadShed`` (typed)."""
        if entry.future.set_running_or_notify_cancel():
            entry.future.set_exception(
                LoadShed(
                    f"request {entry.request.frame_id!r} "
                    f"(class {entry.class_name!r}, priority {entry.priority}) "
                    "shed for higher-priority admission"
                )
            )
        self.metrics.record_load_shed(entry.class_name)

    def stats(self) -> dict:
        """Live metrics snapshot (the server keeps running)."""
        return self.metrics.snapshot()

    def worker_stats(self) -> List[dict]:
        """Per-worker ``session.stats()`` (live for threads, last-reported
        for processes)."""
        if self.pool is None:
            return []
        return self.pool.worker_stats()

    # -- the hand-off ------------------------------------------------------
    def _next_batch(self) -> Optional[MicroBatch]:
        """Block until a micro-batch can start *now*; ``None`` ends the stream.

        Called by whatever is about to run the batch -- an idle thread
        worker, or the process pool's feeder while a child has a free slot
        -- so a batch is never formed ahead of the capacity to run it.
        Each pass sweeps the admission queue into the shape groups, sheds
        what has expired (an expired request is never started), and takes
        the first group whose priority/size/deadline trigger has fired;
        with none due it waits on the queue for the next trigger, TTL
        expiry, arrival or close.
        """
        scheduler = self.scheduler
        with self._handoff:
            while True:
                while self.admission.pop(timeout=0, sink=scheduler.add):
                    pass
                now = self.clock()
                shed = scheduler.shed_expired(now)
                for entry in shed:
                    self._shed_entry(entry, now)
                closing = self.admission.is_drained()
                if closing and self._discard:
                    for batch in scheduler.drain(now):
                        for entry in batch.entries:
                            entry.future.cancel()
                            self.metrics.record_cancelled()
                batch = scheduler.take(now, flush=closing)
                if batch is not None or closing:
                    return batch
                # Wake for whichever comes first: a batch deadline trigger
                # or a pending request's TTL expiry (so sheds are timely).
                wakes = [
                    at
                    for at in (scheduler.next_deadline(), scheduler.next_expiry())
                    if at is not None
                ]
                self.admission.pop(
                    timeout=max(0.0, min(wakes) - now) if wakes else None,
                    sink=scheduler.add,
                )
