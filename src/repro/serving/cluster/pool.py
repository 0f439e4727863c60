"""Worker pools: thread workers and process workers behind one contract.

A :class:`WorkerPool` is the execution half of a
:class:`~repro.serving.server.FrameServer`.  Pools *pull*: whatever can
start a micro-batch now calls the server's one hand-off (``next_batch``,
see ``FrameServer._next_batch``), runs the batch on a warm
:class:`~repro.session.Session` and resolves the per-request futures in
admission order.  ``next_batch`` returning ``None`` is the end of the
stream.  The life cycle is::

    pool.start()            # build sessions / spawn workers; pulling begins
    pool.join(timeout)      # after the stream ended: wait for worker exit

:class:`ThreadWorkerPool` runs one warm session per thread; an idle thread
takes its next batch itself, so nothing is ever queued in the pool.

:class:`ProcessWorkerPool` runs the same contract across **fork**-spawned
worker processes, each owning a warm session built *in the child* (the
factory closure rides the fork, nothing is pickled).  Micro-batches travel
as shared-memory messages (:mod:`repro.serving.cluster.transport`):

* a parent-side feeder thread takes a batch from the hand-off only while
  fewer than ``_STAGED_PER_CHILD x num_workers`` batches are in flight, so
  the backlog stays in the server's waiting room where ``queue_capacity``,
  TTLs and priorities reach it;
* the parent encodes a batch's requests into a
  ``repro-req-{pid}-{pool}-{w}-{b}`` segment (the pool token keeps names
  unique when one parent runs several process servers at once) and
  enqueues the tiny message on worker ``w``'s request queue;
* the child decodes (copying out of the segment), runs ``run_batch``, and
  ships the responses back in a ``repro-resp-{childpid}-{b}`` segment on
  the shared response pipe, with its latest ``session.stats()`` riding
  along;
* a collector thread in the parent decodes the responses, resolves the
  futures, **acks** the batch back to the child (which then unlinks its
  response segment), and unlinks the request segment it created itself.

Segments are thus always unlinked by their creator, and never before the
receiver has copied the bytes out.  The deterministic names make crash
cleanup possible: when a child dies, the parent can attach-and-unlink the
response segments the corpse may have left behind.

Routing is **sticky at low load, balanced under load**: a warm-shape key's
*home* is the first worker it was sent to, and a batch goes home while no
other worker has strictly fewer frames in flight; otherwise it spills to
the least-loaded worker (ties: already warm for the key, then warm for the
fewest keys, then lowest index).  One-at-a-time traffic keeps each warm
set small; a burst of one key uses every process.  Each child caps its
BLAS pool to ``available_cores // num_workers`` threads (reported as
``blas_threads`` in ``worker_stats()``), so ``W`` workers do not spin
``W x cores`` threads.  Responses back-reference their request's
``PointCloud`` (``known=`` in the transport) instead of shipping it back:
the parent patches in the caller's own object, as on the thread path.
What a child does ship is summed into ``worker_stats()[i]["response_bytes"]``.

Crash semantics: the collector polls the response pipe with a short
timeout and sweeps ``process.is_alive()`` between polls.  When a worker
dies, the surviving (non-expired) requests of its in-flight batches are
**re-enqueued** with capped exponential seeded-jitter backoff (see
:class:`~repro.serving.resilience.RetryPolicy`) -- responses are
bit-identical functions of the request, so recomputing them is idempotent.
The dead slot is respawned with a fresh process and request queue
(generation + 1).  Only when a batch runs out of attempts do its futures
fail: with the original :class:`WorkerCrashed` when retries are disabled
(``max_attempts=1``), else with
:class:`~repro.serving.resilience.RetriesExhausted` chaining the last
crash.  The ``WorkerCrashed`` message stays descriptive -- worker name,
pid, exit code, and the in-flight batch ids.  A corrupted response
segment (``TransportError`` on decode) is retried the same way, as is a
request the child could not decode.

End-of-stream is collector-driven: the feeder only marks the stream closed
when the hand-off returns ``None``; the collector sends each worker its
``stop`` sentinel once no batch is in flight *and* no retry is pending, so a
retry can never land behind a ``stop`` in the FIFO request queue.

Fault injection: an optional seeded
:class:`~repro.serving.faults.FaultPlan` rides the fork into every child
and is consulted per batch -- scripted kills, added latency, and poisoned
response manifests exercise each recovery path above deterministically.
A fault's batch ordinal counts batches as they arrive at that worker;
which batches those are depends on the load-aware routing above.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import threading
import time
from queue import Empty as _QueueEmpty  # what an mp.Queue.get(timeout=) raises
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.parallel import available_cores, limit_blas_threads
from repro.serving.cluster.transport import (
    SharedMemoryArena,
    TransportError,
    decode_payload,
    decode_requests,
    encode_payload,
    encode_requests,
    shared_memory_available,
)
from repro.serving.faults import FaultPlan, poison_message
from repro.serving.metrics import Clock, RequestRecord, ServingMetrics
from repro.serving.queue import QueuedRequest
from repro.serving.resilience import RetriesExhausted, RetryPolicy
from repro.serving.scheduler import MicroBatch
from repro.session import Session

#: Collector poll interval; also the crash-sweep cadence.
_POLL_SECONDS = 0.05

#: How long a draining child waits for outstanding response-segment acks.
_ACK_WAIT_SECONDS = 5.0

#: Batches the feeder keeps in flight per child: one running plus one staged,
#: so the next request's encode and transport overlap the current compute.
_STAGED_PER_CHILD = 2


class WorkerCrashed(RuntimeError):
    """A worker process died while its batches were in flight."""


class WorkerError(RuntimeError):
    """A worker raised while serving a batch (re-raised in the parent)."""


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until ``deadline`` on the wall clock joins wait on."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


class WorkerPool:
    """Shared contract + completion logic for the execution pools."""

    def __init__(
        self,
        session_factory: Callable[[], Session],
        num_workers: int,
        metrics: ServingMetrics,
        clock: Clock,
        name: str,
        next_batch: Callable[[], Optional[MicroBatch]],
        shed_entry: Callable[[QueuedRequest, float], None],
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.session_factory = session_factory
        self.num_workers = int(num_workers)
        self.metrics = metrics
        self.clock = clock
        self.name = name
        #: The server's hand-off (blocking; ``None`` ends the stream) and its
        #: resolver of expired entries (``DeadlineExceeded``, counted).
        self._next_batch = next_batch
        self._shed_entry = shed_entry
        self.faults = faults
        self.retry_policy = retry_policy
        #: A parent-side session answering shape queries, set by
        #: :meth:`start`.
        self._probe: Optional[Session] = None

    # -- contract --------------------------------------------------------
    def start(self) -> None:
        raise NotImplementedError

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait up to ``timeout`` seconds *in total* for the workers to exit."""
        raise NotImplementedError

    def worker_stats(self) -> List[dict]:
        raise NotImplementedError

    def shape_key(self, cloud) -> Tuple[Any, ...]:
        assert self._probe is not None, "pool not started"
        return self._probe.shape_key(cloud)

    # -- shared completion path ------------------------------------------
    def _complete_batch(
        self,
        batch: MicroBatch,
        dispatched_at: float,
        completed_at: float,
        responses: Optional[List[Any]],
        error: Optional[BaseException],
        worker_name: str,
    ) -> None:
        """Resolve a batch's futures in admission order and record metrics."""
        if responses is None:
            responses = [None] * len(batch.entries)
        for entry, response in zip(batch.entries, responses):
            completion_index = self.metrics.next_completion_index()
            if entry.future.set_running_or_notify_cancel():
                if error is None:
                    entry.future.set_result(response)
                else:
                    entry.future.set_exception(error)
            self.metrics.record(
                RequestRecord(
                    sequence=entry.sequence,
                    frame_id=entry.request.frame_id,
                    enqueued_at=entry.enqueued_at,
                    dispatched_at=dispatched_at,
                    completed_at=completed_at,
                    completion_index=completion_index,
                    batch_id=batch.batch_id,
                    batch_size=len(batch.entries),
                    trigger=batch.trigger,
                    worker=worker_name,
                    ok=error is None,
                    class_name=entry.class_name,
                )
            )


class ThreadWorkerPool(WorkerPool):
    """Warm-session worker threads, each pulling its own batches.

    Threads cannot be killed or poisoned, so only "slow" faults apply and
    there is nothing for ``retry_policy`` to retry.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.sessions: List[Session] = []
        self._threads: List[threading.Thread] = []

    def start(self) -> None:
        self.sessions = [self.session_factory() for _ in range(self.num_workers)]
        if len(set(map(id, self.sessions))) != len(self.sessions):
            raise ValueError(
                "session_factory must build a distinct Session per worker"
            )
        self._probe = self.sessions[0]
        for worker_index in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(worker_index,),
                name=f"{self.name}-worker-{worker_index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(_remaining(deadline))

    def worker_stats(self) -> List[dict]:
        return [session.stats() for session in self.sessions]

    def _worker_loop(self, worker_index: int) -> None:
        session = self.sessions[worker_index]
        worker_name = f"{self.name}-worker-{worker_index}"
        ordinal = -1
        while (batch := self._next_batch()) is not None:
            ordinal += 1
            # Taken means started: the batch left the waiting room at
            # ``formed_at``; an injected delay below is slow *service*.
            dispatched_at = batch.formed_at
            for entry in batch.entries:
                entry.dispatched_at = dispatched_at
            if self.faults is not None:
                delay = self.faults.slow_delay(worker_index, 0, ordinal)
                if delay > 0:
                    time.sleep(delay)
            try:
                result = session.run_batch(
                    [entry.request for entry in batch.entries]
                )
                responses: Optional[List[Any]] = list(result.responses)
                error: Optional[BaseException] = None
            except Exception as exc:  # resolve futures, keep serving
                responses, error = None, exc
            self._complete_batch(
                batch, dispatched_at, self.clock(), responses, error, worker_name
            )


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
#: Per-parent pool counter: keeps request-segment names unique when one
#: parent runs several process servers at once (e.g. one per task) --
#: each has a worker 0 dispatching a batch 0.  Two digits keep names
#: inside the tightest platform shm-name limits.
_POOL_TOKENS = itertools.count()


def _request_segment_name(
    parent_pid: int, pool_token: int, worker_index: int, batch_id: int
) -> str:
    return f"repro-req-{parent_pid}-{pool_token}-{worker_index}-{batch_id}"


def _response_segment_name(child_pid: int, batch_id: int) -> str:
    return f"repro-resp-{child_pid}-{batch_id}"


def _process_worker_main(
    worker_index: int,
    generation: int,
    session_factory: Callable[[], Session],
    request_queue,
    respond: Callable[[Tuple[Any, ...]], None],
    force_inline: bool,
    faults: Optional[FaultPlan] = None,
    blas_share: int = 1,
) -> None:
    """Child entry point: warm session, serve batches until ``stop``."""
    blas_threads = limit_blas_threads(blas_share)
    session = session_factory()
    arena = SharedMemoryArena(prefix=f"repro-resp-{os.getpid()}")
    unacked: Dict[int, str] = {}
    #: 0-based count of batches this worker has started (fault coordinates).
    ordinal = -1
    #: Array bytes of every response message shipped so far.
    response_bytes = 0

    def _stats() -> dict:
        return dict(
            session.stats(),
            blas_threads=blas_threads,
            response_bytes=response_bytes,
        )

    def _apply_ack(batch_id: int) -> None:
        segment = unacked.pop(batch_id, None)
        if segment is not None:
            arena.release(segment)

    try:
        while True:
            message = request_queue.get()
            kind = message[0]
            if kind == "ack":
                _apply_ack(message[1])
            elif kind == "batch":
                _, batch_id, wire = message
                ordinal += 1
                if faults is not None:
                    # Scripted latency and/or a scripted death, addressed
                    # by (worker, generation, ordinal) -- deterministic.
                    faults.on_batch_start(worker_index, generation, ordinal)
                #: The request clouds, which the parent already holds:
                #: responses back-reference them instead of shipping them.
                known: List[Any] = []
                try:
                    requests = decode_requests(wire)
                    known = [request.cloud for request in requests]
                    result = session.run_batch(requests)
                    payload: Dict[str, Any] = {
                        "responses": list(result.responses),
                        "error": None,
                    }
                except Exception as exc:
                    payload = {
                        "responses": None,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                out = encode_payload(
                    payload,
                    arena=arena,
                    segment_name=_response_segment_name(os.getpid(), batch_id),
                    force_inline=force_inline,
                    known=known,
                )
                response_bytes += out.total_bytes
                if out.segment is not None:
                    unacked[batch_id] = out.segment
                if faults is not None and faults.should_poison(
                    worker_index, generation, ordinal
                ):
                    # Corrupt the manifest, not the bytes: the parent's
                    # decode fails loudly with TransportError and retries.
                    out = poison_message(out)
                respond(
                    (
                        "result",
                        worker_index,
                        generation,
                        batch_id,
                        out,
                        _stats(),
                    )
                )
            elif kind == "stop":
                # Hold un-acked response segments until the parent has
                # copied them out (it acks each one); bounded wait so a
                # vanished parent cannot wedge the child.
                deadline = time.monotonic() + _ACK_WAIT_SECONDS
                while unacked and time.monotonic() < deadline:
                    try:
                        message = request_queue.get(timeout=0.1)
                    except _QueueEmpty:
                        continue
                    if message[0] == "ack":
                        _apply_ack(message[1])
                respond(("bye", worker_index, _stats()))
                break
    finally:
        arena.release_all()


@dataclasses.dataclass
class _WorkerHandle:
    """Parent-side view of one worker process slot."""

    index: int
    generation: int
    process: Any
    request_queue: Any
    #: True once the worker said "bye" or was declared dead.
    done: bool = False
    #: True once the collector sent this worker its "stop" sentinel.
    stopped: bool = False
    #: Batch ids acked to this worker.  The child unlinks its response
    #: segment when it sees the ack; if it dies first, the crash sweep
    #: attach-and-unlinks these (release of an already-gone name is a
    #: no-op), so a kill between "result sent" and "ack processed" cannot
    #: leak shared memory.
    acked: Set[int] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class _InFlight:
    """A dispatched batch the parent is waiting on."""

    batch: MicroBatch
    worker_index: int
    generation: int
    dispatched_at: float
    #: Request segment name (parent-owned), None on the inline path.
    segment: Optional[str]
    #: Dispatch count for this batch so far (1 = first attempt).
    attempts: int = 1


@dataclasses.dataclass
class _PendingRetry:
    """A crashed batch's survivors waiting out their backoff."""

    due_at: float
    batch: MicroBatch
    #: Dispatches so far; the re-dispatch will be attempt ``attempts + 1``.
    attempts: int


class ProcessWorkerPool(WorkerPool):
    """Warm-session worker *processes* with shared-memory batch transport.

    Requires the ``fork`` start method (session factories are ordinary
    closures; fork inherits them, nothing crosses a pickle boundary except
    the transport messages).  Raises :class:`TransportError` where fork is
    unavailable.  When :mod:`multiprocessing.shared_memory` is missing the
    transport carries the bytes inline through the queues -- slower,
    byte-identical.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise TransportError(
                "ProcessWorkerPool needs the 'fork' start method, which is "
                "unavailable on this platform; use execution='thread'"
            )
        self._ctx = multiprocessing.get_context("fork")
        self._force_inline = not shared_memory_available()
        self.retry_policy = self.retry_policy or RetryPolicy()
        self._pool_token = next(_POOL_TOKENS) % 100
        self._arena = SharedMemoryArena(prefix=f"repro-req-{os.getpid()}")
        self._retries: List[_PendingRetry] = []
        self._workers: List[_WorkerHandle] = []
        self._responses = None
        self._respond: Optional[Callable[[Tuple[Any, ...]], None]] = None
        self._collector: Optional[threading.Thread] = None
        self._feeder: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: Signalled (under ``_lock``) whenever a batch leaves ``_in_flight``.
        self._slot_free = threading.Condition(self._lock)
        self._in_flight: Dict[int, _InFlight] = {}
        #: Warm-shape key -> home worker, and the keys each worker has seen.
        self._affinity: Dict[Any, int] = {}
        self._warm: List[Set[Any]] = [set() for _ in range(self.num_workers)]
        self._latest_stats: List[Optional[dict]] = []
        self._eos = False
        self._all_done = threading.Event()
        #: Number of crash-recovery respawns performed (observable in tests).
        self.respawns = 0

    # -- life cycle ------------------------------------------------------
    def start(self) -> None:
        # The probe session never runs a frame; it answers shape_key()
        # queries in the parent (warm state lives in the children).
        self._probe = self.session_factory()
        self._latest_stats = [None] * self.num_workers
        if not self._force_inline:
            # Start the shm resource tracker *before* forking so parent and
            # children share one tracker process.  With a single tracker,
            # the creator-registers/attacher-registers/creator-unregisters
            # traffic collapses cleanly in its set-based cache; with one
            # tracker per process (the lazy default) each sees an
            # unbalanced half and warns about already-unlinked "leaks".
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:
                pass
        # One pipe carries every worker's responses, written synchronously
        # under a shared lock.  (An mp.Queue would write from a feeder
        # thread: a worker dying inside run_batch while its feeder held the
        # queue's write lock wedged every sibling's put() forever.)
        self._responses, writer = self._ctx.Pipe(duplex=False)
        write_lock = self._ctx.Lock()

        def respond(message: Tuple[Any, ...]) -> None:
            with write_lock:
                writer.send(message)

        self._respond = respond
        # Spawn before the collector and feeder threads exist so the forks do
        # not duplicate a thread holding a lock.
        self._workers = [
            self._spawn(index, generation=0) for index in range(self.num_workers)
        ]
        self._collector = threading.Thread(
            target=self._collector_loop,
            name=f"{self.name}-collector",
            daemon=True,
        )
        self._collector.start()
        self._feeder = threading.Thread(
            target=self._feeder_loop, name=f"{self.name}-feeder", daemon=True
        )
        self._feeder.start()

    def _feeder_loop(self) -> None:
        """Move batches from the hand-off to the children, a slot at a time."""
        slots = _STAGED_PER_CHILD * self.num_workers
        try:
            while True:
                with self._lock:
                    while len(self._in_flight) >= slots:
                        self._slot_free.wait()
                batch = self._next_batch()
                if batch is None:
                    break
                self._send(batch)
        finally:
            # Even if the hand-off raised: the collector stops the children
            # only once the stream is marked closed.
            with self._lock:
                self._eos = True

    def _spawn(self, index: int, generation: int) -> _WorkerHandle:
        request_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(
                index,
                generation,
                self.session_factory,
                request_queue,
                self._respond,
                self._force_inline,
                self.faults,
                max(1, available_cores() // self.num_workers),
            ),
            name=f"{self.name}-proc-{index}",
            daemon=True,
        )
        process.start()
        return _WorkerHandle(
            index=index,
            generation=generation,
            process=process,
            request_queue=request_queue,
        )

    def _send(self, batch: MicroBatch, attempts: int = 1) -> None:
        """Encode ``batch`` and enqueue it on the child routing picks."""
        worker_index = self._route(batch.key)
        # A first attempt started when it left the waiting room.
        dispatched_at = batch.formed_at if attempts == 1 else self.clock()
        for entry in batch.entries:
            entry.dispatched_at = dispatched_at
            entry.attempts = attempts
        wire = encode_requests(
            [entry.request for entry in batch.entries],
            arena=self._arena,
            segment_name=_request_segment_name(
                os.getpid(), self._pool_token, worker_index, batch.batch_id
            ),
            force_inline=self._force_inline,
        )
        # Handle lookup, in-flight registration, and the enqueue happen
        # under one lock so a concurrent crash-respawn cannot swap the
        # handle between the lookup and the put.
        with self._lock:
            handle = self._workers[worker_index]
            if handle.done:
                # The slot died and was retired (possible only while
                # draining); a retry still needs a live worker there.
                handle = self._spawn(handle.index, handle.generation + 1)
                self._workers[worker_index] = handle
                self.respawns += 1
            self._in_flight[batch.batch_id] = _InFlight(
                batch=batch,
                worker_index=worker_index,
                generation=handle.generation,
                dispatched_at=dispatched_at,
                segment=wire.segment,
                attempts=attempts,
            )
            handle.request_queue.put(("batch", batch.batch_id, wire))

    def _route(self, key: Any) -> int:
        """Load-aware placement: home while it is no busier than the rest."""
        with self._lock:
            load = [0] * self.num_workers
            for info in self._in_flight.values():
                load[info.worker_index] += len(info.batch.entries)
            home = self._affinity.get(key)
            worker_index = min(
                range(self.num_workers),
                key=lambda i: (
                    self._workers[i].done,  # retired while draining
                    load[i],
                    i != home,
                    key not in self._warm[i],
                    len(self._warm[i]),
                    i,
                ),
            )
            self._affinity.setdefault(key, worker_index)
            self._warm[worker_index].add(key)
            return worker_index

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        self._all_done.wait(_remaining(deadline))
        for thread in (self._feeder, self._collector):
            if thread is not None:
                thread.join(_remaining(deadline))
        for handle in self._workers:
            handle.process.join(_remaining(deadline))
            if handle.process.is_alive():  # refuse to hang the caller
                handle.process.terminate()
                handle.process.join(1.0)
            try:
                handle.request_queue.close()
                handle.request_queue.cancel_join_thread()
            except Exception:
                pass
        if self._responses is not None:
            self._responses.close()
            self._respond = None  # drops the write end with the closure
        self._arena.release_all()

    # -- introspection ---------------------------------------------------
    def worker_stats(self) -> List[dict]:
        """Latest ``session.stats()`` reported by each worker process."""
        with self._lock:
            return [dict(stats) if stats else {} for stats in self._latest_stats]

    def affinity_map(self) -> Dict[Any, int]:
        """Warm-shape key -> worker index (snapshot)."""
        with self._lock:
            return dict(self._affinity)

    # -- collector thread ------------------------------------------------
    def _collector_loop(self) -> None:
        try:
            while True:
                message = None
                if self._responses.poll(_POLL_SECONDS):
                    message = self._responses.recv()
                if message is not None:
                    if message[0] == "result":
                        self._handle_result(message)
                    elif message[0] == "bye":
                        _, worker_index, stats = message
                        with self._lock:
                            self._latest_stats[worker_index] = stats
                            self._workers[worker_index].done = True
                self._sweep_crashes()
                self._dispatch_due_retries()
                with self._lock:
                    quiescent = (
                        self._eos and not self._in_flight and not self._retries
                    )
                    if quiescent:
                        # Safe to stop the workers now: FIFO queues hold no
                        # batch, and no retry can be dispatched anymore.
                        for handle in self._workers:
                            if handle.stopped or handle.done:
                                continue
                            try:
                                handle.request_queue.put(("stop",))
                            except Exception:
                                pass
                            handle.stopped = True
                    if quiescent and all(
                        h.done or not h.process.is_alive()
                        for h in self._workers
                    ):
                        break
        finally:
            self._all_done.set()

    def _dispatch_due_retries(self) -> None:
        """Re-dispatch crashed batches whose backoff has elapsed."""
        now = self.clock()
        due: List[_PendingRetry] = []
        with self._lock:
            if not self._retries:
                return
            still: List[_PendingRetry] = []
            for pending in self._retries:
                (due if pending.due_at <= now else still).append(pending)
            self._retries = still
        for pending in due:
            # Deadlines are re-checked at re-dispatch time: backoff may
            # have outlived a survivor's TTL.
            if self._keep_survivors(pending.batch, now):
                self._send(pending.batch, attempts=pending.attempts + 1)

    def _keep_survivors(self, batch: MicroBatch, now: float) -> bool:
        """Shed the batch's expired entries (typed); False when none is left."""
        for entry in batch.entries:
            if entry.expired(now):
                self._shed_entry(entry, now)
        batch.entries = [e for e in batch.entries if not e.expired(now)]
        return bool(batch.entries)

    def _handle_result(self, message: Tuple[Any, ...]) -> None:
        _, worker_index, generation, batch_id, wire, stats = message
        with self._lock:
            info = self._in_flight.get(batch_id)
            if info is not None and (
                info.worker_index != worker_index
                or info.generation != generation
            ):
                # Stale result from a generation whose batch was already
                # swept and re-dispatched; the live attempt will complete
                # the batch.  Treat this one as an orphan.
                info = None
            else:
                self._in_flight.pop(batch_id, None)
                self._slot_free.notify()
            self._latest_stats[worker_index] = stats
            handle = self._workers[worker_index]
        worker_name = f"{self.name}-proc-{worker_index}"
        payload: Optional[Dict[str, Any]] = None
        failure: Optional[BaseException] = None
        if info is not None:  # an orphan is reclaimed below, never decoded
            try:
                payload = decode_payload(
                    wire, known=[e.request.cloud for e in info.batch.entries]
                )
            except TransportError as exc:
                failure = WorkerError(
                    f"{worker_name}: response transport failed: {exc}"
                )
        # Ack so the child can unlink its response segment; reclaim the
        # request segment this side created.
        try:
            handle.request_queue.put(("ack", batch_id))
        except Exception:
            pass
        if handle.generation == generation:
            handle.acked.add(batch_id)
        if info is None:
            if wire.segment is not None:
                # Result for a batch the crash sweep already failed (the
                # worker responded and died before we noticed): reclaim
                # the orphaned response segment.
                self._arena.release(wire.segment)
            return
        if info.segment is not None:
            self._arena.release(info.segment)
        if payload is None:
            # A corrupted response proves nothing about the request:
            # recomputing is idempotent, so treat it like a crash and
            # retry the survivors under the same policy.
            self._retry_or_fail(batch_id, info, failure, worker_name)
            return
        if payload["error"] is not None:
            failure = WorkerError(f"{worker_name}: {payload['error']}")
        self._complete_batch(
            info.batch,
            info.dispatched_at,
            self.clock(),
            payload["responses"],
            failure,
            worker_name,
        )

    def _retry_or_fail(
        self, batch_id: int, info: _InFlight, cause: BaseException, worker_name: str
    ) -> None:
        """Retry the batch's survivors, or fail it when out of attempts."""
        if self._schedule_retry(info, cause):
            return
        error = cause
        if info.attempts > 1:
            error = RetriesExhausted(
                f"batch {batch_id} gave up after {info.attempts} "
                f"attempts; last failure: {cause}"
            )
            error.__cause__ = cause
        self._complete_batch(
            info.batch, info.dispatched_at, self.clock(), None, error, worker_name
        )

    def _schedule_retry(
        self, info: _InFlight, cause: BaseException
    ) -> bool:
        """Queue the batch's unexpired survivors for a backed-off retry.

        Returns False when the policy is out of attempts (caller fails the
        batch); expired entries are shed either way.
        """
        if self.retry_policy.exhausted(info.attempts):
            return False
        now = self.clock()
        if not self._keep_survivors(info.batch, now):
            return True
        delay = self.retry_policy.delay(info.attempts)
        for _ in info.batch.entries:
            self.metrics.record_retry()
        with self._lock:
            self._retries.append(
                _PendingRetry(
                    due_at=now + delay,
                    batch=info.batch,
                    attempts=info.attempts,
                )
            )
        return True

    def _sweep_crashes(self) -> None:
        casualties: List[Tuple[_WorkerHandle, List[Tuple[int, _InFlight]]]] = []
        with self._lock:
            for slot, handle in enumerate(list(self._workers)):
                if handle.done or handle.process.is_alive():
                    continue
                handle.done = True
                self._warm[slot] = set()  # its warm sessions died with it
                batches: List[Tuple[int, _InFlight]] = []
                for batch_id, info in list(self._in_flight.items()):
                    if (
                        info.worker_index == handle.index
                        and info.generation == handle.generation
                    ):
                        del self._in_flight[batch_id]
                        batches.append((batch_id, info))
                self._slot_free.notify()
                retryable = any(
                    not self.retry_policy.exhausted(info.attempts)
                    for _, info in batches
                )
                if not self._eos or retryable:
                    # Replace the handle inside this same critical section:
                    # _send() reads the handle and registers in-flight
                    # under the lock, so a batch can never be enqueued on
                    # the dead worker's queue after its casualties were
                    # collected (it either lands in `batches` above or on
                    # the fresh replacement).  While draining, respawn only
                    # when a retry will need the slot; a retry whose
                    # affinity points at a retired slot respawns it lazily
                    # in _send().
                    self._workers[slot] = self._spawn(
                        handle.index, generation=handle.generation + 1
                    )
                    self.respawns += 1
                casualties.append((handle, batches))
        for handle, batches in casualties:
            worker_name = f"{self.name}-proc-{handle.index}"
            pid = handle.process.pid
            batch_ids = sorted(batch_id for batch_id, _ in batches)
            error = WorkerCrashed(
                f"worker process {worker_name} (pid {pid}, generation "
                f"{handle.generation}) died with exit code "
                f"{handle.process.exitcode} while {len(batches)} batch(es) "
                f"{batch_ids} were in flight"
            )
            if pid is not None:
                # Response segments of batches the corpse completed but
                # whose acks it never processed (it would have unlinked
                # them itself): attach-and-unlink whatever is left.
                for batch_id in handle.acked:
                    self._arena.release(_response_segment_name(pid, batch_id))
            for batch_id, info in batches:
                if info.segment is not None:
                    self._arena.release(info.segment)
                if pid is not None:
                    # Best-effort reclaim of a response segment the corpse
                    # may have created for this batch.
                    self._arena.release(_response_segment_name(pid, batch_id))
                self._retry_or_fail(batch_id, info, error, worker_name)
