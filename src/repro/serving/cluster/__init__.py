"""Process serving: shared-memory transport and the worker pools.

Two layers under the serving stack, each usable alone:

* :mod:`~repro.serving.cluster.transport` -- ship ``FrameBatch`` tensors
  and response payloads across process boundaries without pickling array
  data (shared-memory segments + dtype/shape manifest, inline fallback);
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
    FrameBatchHeader,
    SharedMemoryArena,
    TransportError,
    TransportMessage,
    decode_frame_batch,
    decode_payload,
    decode_requests,
    encode_frame_batch,
    encode_payload,
    encode_requests,
    shared_memory_available,
)

__all__ = [
    "ArraySpec",
    "FrameBatchHeader",
    "ProcessWorkerPool",
    "SharedMemoryArena",
    "ThreadWorkerPool",
    "TransportError",
    "TransportMessage",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "decode_frame_batch",
    "decode_payload",
    "decode_requests",
    "encode_frame_batch",
    "encode_payload",
    "encode_requests",
    "shared_memory_available",
]
