"""Asynchronous serving on top of the ``FrameBatch`` boundary.

The subsystem is four small pieces wired together by
:class:`~repro.serving.server.FrameServer`, whose hand-off forms a
micro-batch only when a worker can start it:

* :class:`~repro.serving.queue.AdmissionQueue` -- bounded FIFO behind
  :meth:`FrameServer.submit`, with enqueue timestamps and backpressure;
* :class:`~repro.serving.scheduler.MicroBatchScheduler` -- groups admitted
  requests by warm-state shape key; a group is taken on a max-batch-size
  or max-wait-deadline trigger, whichever fires first, or at once by an
  idle pool;
* a :class:`~repro.serving.cluster.pool.WorkerPool` -- workers (threads or
  processes, see :mod:`repro.serving.cluster.pool`) each owning one warm
  :class:`~repro.session.Session`, pulling batches from the hand-off and
  running them through the bit-identical ``run_batch`` path;
* :class:`~repro.serving.metrics.ServingMetrics` -- per-request records and
  p50/p95/p99 queue-wait/latency percentiles.

Execution is pluggable: ``FrameServer(execution="thread")`` runs warm
sessions on worker threads, ``execution="process"`` on fork-spawned worker
processes with shared-memory batch transport -- see
:mod:`repro.serving.cluster`.  One server is the one serving entry point:
more capacity is more workers (``num_workers``), which the pool routes by
warm-shape key to a sticky home worker and spills to the least-loaded one.

:meth:`FrameServer.submit` is the one serving entry point; the core
:class:`~repro.session.Session` knows nothing of serving.  To serve one
existing session, wrap it:
``FrameServer(session_factory=lambda: session, num_workers=1)``.

Every request is one traffic class.  When the waiting room is full,
``FrameServer(admission="reject")`` raises :class:`QueueFull` from
``submit`` and ``admission="shed"`` resolves the arrival's future with
:class:`LoadShed` instead.

Resilience (:mod:`~repro.serving.resilience`, :mod:`~repro.serving.faults`)
wraps the same pipeline without touching the bit-identical core: requests
may carry TTL deadlines (shed as :class:`DeadlineExceeded` before
dispatch), crashed process workers are retried with capped seeded-jitter
backoff (:class:`RetryPolicy`; :class:`RetriesExhausted` when out of
attempts), and a seeded :class:`FaultPlan` injects deterministic kills /
latency / transport corruption for chaos testing.
"""

from repro.serving.config import (
    ChaosConfig,
    ExecutionConfig,
    ServeConfig,
    TrafficConfig,
)
from repro.serving.faults import FaultPlan, FaultSpec
from repro.serving.metrics import (
    ManualClock,
    RequestRecord,
    ServingMetrics,
)
from repro.serving.traffic import TrafficItem, TrafficModel
from repro.serving.resilience import (
    DeadlineExceeded,
    RetriesExhausted,
    RetryPolicy,
)
from repro.serving.queue import (
    AdmissionQueue,
    LoadShed,
    QueueClosed,
    QueuedRequest,
    QueueFull,
    SubmitOptions,
)
from repro.serving.scheduler import MicroBatch, MicroBatchScheduler
from repro.serving.server import (
    FrameServer,
    response_signature,
    signatures_equal,
)
from repro.serving.cluster import (
    ProcessWorkerPool,
    ThreadWorkerPool,
    WorkerCrashed,
    WorkerError,
)

__all__ = [
    "AdmissionQueue",
    "ChaosConfig",
    "DeadlineExceeded",
    "ExecutionConfig",
    "FaultPlan",
    "FaultSpec",
    "FrameServer",
    "LoadShed",
    "ManualClock",
    "MicroBatch",
    "MicroBatchScheduler",
    "ProcessWorkerPool",
    "QueueClosed",
    "QueueFull",
    "QueuedRequest",
    "RequestRecord",
    "RetriesExhausted",
    "RetryPolicy",
    "ServeConfig",
    "ServingMetrics",
    "SubmitOptions",
    "ThreadWorkerPool",
    "TrafficConfig",
    "TrafficItem",
    "TrafficModel",
    "response_signature",
    "signatures_equal",
]
