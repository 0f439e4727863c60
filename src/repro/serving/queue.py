"""Bounded admission queue: where every served request first waits.

Requests enter serving through :meth:`AdmissionQueue.submit` (behind
``FrameServer.submit``, the one serving entry point), which stamps the
enqueue time on the injected clock, allocates the submission sequence
number, and pairs the request with the :class:`concurrent.futures.Future`
handed back to the caller.  The queue is a bounded FIFO that never makes a
caller wait: when it is full, ``submit`` raises :class:`QueueFull` at once
(open-loop callers count the rejection and move on; the server's shed mode
turns it into a typed ``LoadShed`` instead).

Per-request knobs travel as one :class:`SubmitOptions`.  A request may
carry a TTL: ``SubmitOptions(ttl=...)`` stamps an absolute ``deadline`` on
the entry.  A full queue sheds its expired entries (oldest first -- the
FIFO order) before giving up with :class:`QueueFull`; each shed entry is
handed to the ``on_shed`` callback *outside* the queue lock so the owner
can resolve its future with ``DeadlineExceeded`` -- an admitted request is
never silently dropped.

The consumer is the server's hand-off (``FrameServer._next_batch``), run by
whichever worker can start a batch: it pulls entries with :meth:`pop` and
regroups them into shape-keyed micro-batches (see
:mod:`repro.serving.scheduler`).  Popped entries that have not started yet
still occupy the waiting room: the owner reports them through ``held`` and
they count against ``capacity`` like queued ones.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterable, List, Optional

from repro.serving.metrics import Clock
from repro.session import FrameRequest


@dataclass(frozen=True)
class SubmitOptions:
    """Per-request options of ``FrameServer.submit``.

    One typed bundle that ``FrameServer.submit`` and
    :meth:`AdmissionQueue.submit` take as ``options=``; the same object is
    threaded through the layers untouched.

    ``class_name`` feeds the serving policy layer
    (:mod:`repro.serving.policy`): it picks a configured
    :class:`~repro.serving.policy.PriorityClass` (the policy's default
    class when ``None``), whose rank the request rides.  On servers
    without a policy it only labels the per-class metrics.
    """

    #: Seconds the request may wait before dispatch; past it the future
    #: resolves with ``DeadlineExceeded`` (typed, never silent).
    ttl: Optional[float] = None
    #: Serving-policy class name; ``None`` means the policy's default.
    class_name: Optional[str] = None

    def __post_init__(self) -> None:
        # ``not ttl > 0`` also rejects NaN, which compares false to all.
        if self.ttl is not None and not self.ttl > 0:
            raise ValueError(f"ttl must be > 0 seconds, got {self.ttl}")

    @classmethod
    def coerce(cls, options: Optional["SubmitOptions"] = None) -> "SubmitOptions":
        """``options`` itself, or the defaults when ``None``."""
        return options if options is not None else cls()


class QueueFull(RuntimeError):
    """The admission queue is at capacity (backpressure)."""


class QueueClosed(RuntimeError):
    """The admission queue no longer accepts requests (shutdown)."""


@dataclass
class QueuedRequest:
    """One admitted request travelling the queue -> scheduler -> worker path."""

    request: FrameRequest
    future: "Future"
    #: Admission order (0-based), unique per queue.
    sequence: int
    #: Clock reading at admission.
    enqueued_at: float
    #: Filled in by the worker when its micro-batch starts executing.
    dispatched_at: Optional[float] = field(default=None, compare=False)
    #: Absolute clock deadline (``enqueued_at`` clock + ttl); ``None`` means
    #: the request waits indefinitely.  Checked before dispatch, never after.
    deadline: Optional[float] = field(default=None, compare=False)
    #: How many times a worker pool has dispatched this entry (crash retry).
    attempts: int = field(default=0, compare=False)
    #: Serving-policy rank (higher wins scheduler ordering and survives
    #: admission shedding); 0 for requests without a policy.
    priority: int = field(default=0, compare=False)
    #: Serving-policy class this entry rides (per-class metrics key).
    class_name: str = field(default="default", compare=False)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and self.deadline <= now


def shed_victim(
    entries: Iterable[QueuedRequest], below_priority: int
) -> Optional[QueuedRequest]:
    """The entry SLO-aware admission evicts for a ``below_priority`` arrival.

    Among entries of strictly lower priority: the lowest-priority one,
    youngest first (the least sunk queue wait).  ``None`` when every entry
    ranks at least ``below_priority``.
    """
    return min(
        (entry for entry in entries if entry.priority < below_priority),
        key=lambda entry: (entry.priority, -entry.sequence),
        default=None,
    )


class AdmissionQueue:
    """Thread-safe bounded FIFO of :class:`QueuedRequest` entries."""

    def __init__(
        self,
        capacity: int = 256,
        clock: Clock = time.monotonic,
        on_shed: Optional[Callable[[QueuedRequest], None]] = None,
        held: Optional[Callable[[], int]] = None,
    ):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.clock = clock
        #: Called (outside the queue lock) with each expired entry shed to
        #: make room; the owner resolves its future with DeadlineExceeded.
        self.on_shed = on_shed
        #: Counts entries popped but not yet started (the scheduler's
        #: groups); they hold their slot until a worker starts them.
        self.held = held
        self._entries: Deque[QueuedRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._sequence = 0

    # -- producer side --------------------------------------------------
    def submit(
        self,
        request: FrameRequest,
        options: Optional[SubmitOptions] = None,
        *,
        priority: int = 0,
        class_name: str = "default",
    ) -> QueuedRequest:
        """Admit ``request``; returns its queue entry (future included).

        Per-request knobs travel as one :class:`SubmitOptions`.
        ``options.ttl`` (seconds, > 0) stamps an absolute deadline on the
        entry; expired entries are shed before dispatch rather than served.
        ``priority``/``class_name`` are the *resolved* policy values stamped
        by the owning server (the raw ``options.class_name`` may be
        ``None``).

        Raises :class:`QueueFull` when at capacity and :class:`QueueClosed`
        after :meth:`close`.  A full queue first sheds its own expired
        entries to make room.
        """
        options = SubmitOptions.coerce(options)
        ttl_seconds = options.ttl
        shed: List[QueuedRequest] = []
        try:
            with self._lock:
                if self._closed:
                    raise QueueClosed("admission queue is closed")
                if self._full():
                    shed = self._shed_expired_locked(self.clock())
                if self._full():
                    raise QueueFull(
                        f"admission queue at capacity ({self.capacity})"
                    )
                now = self.clock()
                entry = QueuedRequest(
                    request=request,
                    future=Future(),
                    sequence=self._sequence,
                    enqueued_at=now,
                    deadline=None if ttl_seconds is None else now + ttl_seconds,
                    priority=int(priority),
                    class_name=class_name,
                )
                self._sequence += 1
                self._entries.append(entry)
                self._not_empty.notify()
                return entry
        finally:
            if shed and self.on_shed is not None:
                for victim in shed:
                    self.on_shed(victim)

    def _full(self) -> bool:
        """Queued plus held entries fill ``capacity`` (caller holds the lock)."""
        held = self.held() if self.held is not None else 0
        return len(self._entries) + held >= self.capacity

    def steal_lowest(self, below_priority: int) -> Optional[QueuedRequest]:
        """Remove and return the :func:`shed_victim` among queued entries.

        The caller resolves the victim's future with a typed ``LoadShed``.
        """
        with self._lock:
            victim = shed_victim(self._entries, below_priority)
            if victim is not None:
                # Rebuild by identity: dataclass __eq__ would compare the
                # numpy payloads element-wise.
                self._entries = deque(
                    e for e in self._entries if e is not victim
                )
            return victim

    def _shed_expired_locked(self, now: float) -> List[QueuedRequest]:
        """Drop expired entries (oldest first); caller resolves their futures."""
        if not self._entries:
            return []
        shed = [entry for entry in self._entries if entry.expired(now)]
        if shed:
            self._entries = deque(
                entry for entry in self._entries if not entry.expired(now)
            )
        return shed

    def close(self) -> None:
        """Stop admitting; already-queued entries remain poppable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    # -- consumer side --------------------------------------------------
    def pop(
        self,
        timeout: Optional[float] = None,
        sink: Optional[Callable[[QueuedRequest], None]] = None,
    ) -> Optional[QueuedRequest]:
        """Pop the oldest entry, waiting up to ``timeout`` seconds.

        Returns ``None`` on timeout or when the queue is closed and empty
        (check :meth:`is_drained` to tell the two apart).  ``sink`` takes
        the entry under the queue lock, so one moving into what ``held``
        counts never drops out of the bound on the way.
        """
        with self._lock:
            if not self._entries:
                if self._closed:
                    return None
                self._not_empty.wait(timeout)
            if not self._entries:
                return None
            entry = self._entries.popleft()
            if sink is not None:
                sink(entry)
            return entry

    def is_drained(self) -> bool:
        """Closed and empty: no entry will ever come out again."""
        with self._lock:
            return self._closed and not self._entries

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
