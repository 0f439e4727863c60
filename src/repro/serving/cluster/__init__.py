"""Process serving: shared-memory transport and the worker pools.

Two layers under the serving stack, each usable alone:

* :mod:`~repro.serving.cluster.transport` -- ship request micro-batches
  (one stacked tensor pair per raw shape) and response payloads across
  process boundaries without pickling array data (shared-memory segments +
  dtype/shape manifest, inline fallback);
* :mod:`~repro.serving.cluster.pool` -- the worker-pool contract behind
  :class:`~repro.serving.server.FrameServer`, with thread and
  fork-process implementations (warm child sessions, shape-key-affine
  routing, crash detection + respawn).
"""

from repro.serving.cluster.pool import (
    ProcessWorkerPool,
    ThreadWorkerPool,
    WorkerCrashed,
    WorkerError,
    WorkerPool,
)
from repro.serving.cluster.transport import (
    ArraySpec,
    SharedMemoryArena,
    TransportError,
    TransportMessage,
    decode_payload,
    decode_requests,
    encode_payload,
    encode_requests,
    shared_memory_available,
)

__all__ = [
    "ArraySpec",
    "ProcessWorkerPool",
    "SharedMemoryArena",
    "ThreadWorkerPool",
    "TransportError",
    "TransportMessage",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "decode_payload",
    "decode_requests",
    "encode_payload",
    "encode_requests",
    "shared_memory_available",
]
