"""Shape-grouped micro-batch formation and its dispatch triggers.

The scheduler holds the requests the admission queue has handed over and
groups them by their warm-state shape key -- ``(task, sampled_size,
feature_channels)``, the same key :meth:`repro.session.Session.shape_key`
uses -- because only same-keyed frames can ride one
:class:`~repro.core.framebatch.FrameBatch` through a warm session.

A group dispatches as a :class:`MicroBatch` when the first of these
triggers fires:

* **size** -- the group reached its effective batch size: the configured
  ``max_batch_size``, further capped by ``batch_rows_budget // sampled_size``
  so the stacked network operand stays cache-sized (the same budget
  :class:`~repro.session.Session` applies when sub-batching; capping here
  keeps the scheduler from forming batches the session would immediately
  split).
* **deadline** -- the group's *oldest* request has waited
  ``max_wait_seconds`` since admission.  This bounds the latency a lonely
  shape pays for batching behind running work: a request never waits
  longer than that for companions that may not come.
* **idle** -- the caller says no batch is running (``take(idle=True)``)
  and no other trigger fired: the first group in visit order dispatches
  at once, because waiting for companions only pays while a worker is busy.
  Off by default, so :meth:`ready` and :meth:`drain` never use it.

Groups are visited in the order they formed, and a batch takes its
group's oldest members in admission order, so per-batch future resolution
stays monotonic in sequence numbers (the ``futures_monotonic`` gate).
:meth:`drain` flushes every pending group (trigger ``"drain"``) for
graceful shutdown.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.serving.metrics import Clock
from repro.serving.queue import QueuedRequest
from repro.session import FrameRequest

#: Maps a request to its warm-state shape key ``(task, sampled, channels)``.
ShapeKey = Callable[[FrameRequest], Tuple[str, int, int]]


@dataclass
class MicroBatch:
    """One shape-homogeneous batch ready for a worker."""

    key: Tuple[str, int, int]
    entries: List[QueuedRequest]
    #: Clock reading when the batch was formed.
    formed_at: float
    #: Which trigger formed it: "size", "deadline", "idle" or "drain".
    trigger: str
    #: Formation order (0-based, per scheduler).
    batch_id: int = 0


class MicroBatchScheduler:
    """Groups pending requests by shape key and decides when to dispatch."""

    def __init__(
        self,
        shape_key: ShapeKey,
        max_batch_size: int = 8,
        max_wait_seconds: float = 0.005,
        batch_rows_budget: Optional[int] = None,
        clock: Clock = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        # ``not 0 <= x < inf`` also rejects NaN, which compares false to all:
        # a NaN deadline would spin the hand-off on zero-length waits.
        if not 0 <= max_wait_seconds < math.inf:
            raise ValueError(
                f"max_wait_seconds must be finite and >= 0, "
                f"got {max_wait_seconds}"
            )
        if batch_rows_budget is not None and batch_rows_budget < 1:
            raise ValueError(
                f"batch_rows_budget must be >= 1, got {batch_rows_budget}"
            )
        self.shape_key = shape_key
        self.max_batch_size = int(max_batch_size)
        self.max_wait_seconds = float(max_wait_seconds)
        self.batch_rows_budget = batch_rows_budget
        self.clock = clock
        self._lock = threading.Lock()
        #: Pending entries per shape key, in admission order; keys in the
        #: order their group formed.
        self._pending: Dict[Tuple[str, int, int], List[QueuedRequest]] = {}
        self._batch_counter = 0

    # ------------------------------------------------------------------
    def effective_batch_size(self, key: Tuple[str, int, int]) -> int:
        """The size trigger for ``key``: max batch size under the rows budget."""
        limit = self.max_batch_size
        if self.batch_rows_budget is not None:
            rows = max(1, int(key[1]))
            limit = min(limit, max(1, self.batch_rows_budget // rows))
        return limit

    @property
    def pending_count(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._pending.values())

    # ------------------------------------------------------------------
    def add(self, entry: QueuedRequest) -> None:
        """Accept one entry from the admission queue into its shape group."""
        key = self.shape_key(entry.request)
        with self._lock:
            self._pending.setdefault(key, []).append(entry)

    def next_deadline(self) -> Optional[float]:
        """Earliest clock reading at which a deadline trigger fires."""
        with self._lock:
            deadlines = [
                entries[0].enqueued_at + self.max_wait_seconds
                for entries in self._pending.values()
                if entries
            ]
        return min(deadlines) if deadlines else None

    def next_expiry(self) -> Optional[float]:
        """Earliest request deadline among pending entries (TTL sheds)."""
        with self._lock:
            deadlines = [
                entry.deadline
                for entries in self._pending.values()
                for entry in entries
                if entry.deadline is not None
            ]
        return min(deadlines) if deadlines else None

    def shed_expired(self, now: Optional[float] = None) -> List[QueuedRequest]:
        """Remove expired entries from every pending group (pre-dispatch).

        Returns the shed entries; the caller resolves their futures with
        ``DeadlineExceeded``.  Runs before :meth:`ready`/:meth:`drain` so an
        expired request is never dispatched -- and never silently dropped.
        """
        if now is None:
            now = self.clock()
        shed: List[QueuedRequest] = []
        with self._lock:
            for key in list(self._pending):
                entries = self._pending[key]
                kept = [e for e in entries if not e.expired(now)]
                if len(kept) == len(entries):
                    continue
                shed.extend(e for e in entries if e.expired(now))
                if kept:
                    self._pending[key] = kept
                else:
                    del self._pending[key]
        return shed

    def take(
        self,
        now: Optional[float] = None,
        flush: bool = False,
        idle: bool = False,
    ) -> Optional[MicroBatch]:
        """Pop the first batch whose size or deadline trigger fired.

        The hand-off primitive: whoever can start a batch *now* takes one.
        ``flush`` hands out every pending group regardless of triggers
        (trigger ``"drain"``, the shutdown path).  ``idle`` says no batch
        is running: when no other trigger fired, the first group in visit
        order starts at once (trigger ``"idle"``).  ``None`` when nothing
        is due.
        """
        if now is None:
            now = self.clock()
        with self._lock:
            for key, entries in self._pending.items():
                if flush:
                    trigger = "drain"
                elif len(entries) >= self.effective_batch_size(key):
                    trigger = "size"
                elif now - entries[0].enqueued_at >= self.max_wait_seconds:
                    trigger = "deadline"
                else:
                    continue
                return self._pop(key, now, trigger)
            if idle and self._pending:
                return self._pop(next(iter(self._pending)), now, "idle")
        return None

    def ready(
        self, now: Optional[float] = None, flush: bool = False
    ) -> List[MicroBatch]:
        """Every batch :meth:`take` would hand out at ``now``, in order."""
        if now is None:
            now = self.clock()
        batches: List[MicroBatch] = []
        while (batch := self.take(now, flush)) is not None:
            batches.append(batch)
        return batches

    def drain(self, now: Optional[float] = None) -> List[MicroBatch]:
        """Flush every pending group (shutdown path)."""
        return self.ready(now, flush=True)

    def _pop(
        self, key: Tuple[str, int, int], now: float, trigger: str
    ) -> MicroBatch:
        """Form ``key``'s next batch from its oldest members and remove them
        from the group.  Caller holds the lock."""
        entries = self._pending[key]
        limit = self.effective_batch_size(key)
        chosen, rest = entries[:limit], entries[limit:]
        if rest:
            self._pending[key] = rest
        else:
            del self._pending[key]
        batch = MicroBatch(
            key=key,
            entries=chosen,
            formed_at=now,
            trigger=trigger,
            batch_id=self._batch_counter,
        )
        self._batch_counter += 1
        return batch
