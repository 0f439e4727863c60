"""Shape-grouped micro-batch formation with size/deadline dispatch triggers.

The scheduler holds the requests the admission queue has handed over and
groups them by their warm-state shape key -- ``(task, sampled_size,
feature_channels)``, the same key :meth:`repro.session.Session.shape_key`
uses -- because only same-keyed frames can ride one
:class:`~repro.core.framebatch.FrameBatch` through a warm session.

A group dispatches as a :class:`MicroBatch` when the first of three
triggers fires:

* **size** -- the group reached its effective batch size: the configured
  ``max_batch_size``, further capped by ``batch_rows_budget // sampled_size``
  so the stacked network operand stays cache-sized (the same budget
  :class:`~repro.session.Session` applies when sub-batching; capping here
  keeps the scheduler from forming batches the session would immediately
  split).
* **deadline** -- the group's *oldest* request has waited
  ``max_wait_seconds`` since admission.  This bounds the latency a lonely
  shape pays for batching: a request never waits longer than that for
  companions that may not come.
* **priority** -- a request of a ``preempt``
  :class:`~repro.serving.policy.PriorityClass` arrived: its shape group
  dispatches immediately instead of waiting for companions, carrying the
  highest-priority members first.

With a serving policy attached, groups are visited highest-priority first
(a high-priority arrival jumps the grouping order) and an over-full
group's members are *selected* by descending priority -- but whichever
entries are selected leave in admission order within the batch, so
per-batch future resolution stays monotonic in sequence numbers (the
``futures_monotonic`` gate holds under every policy).  :meth:`drain`
flushes every pending group (trigger ``"drain"``) for graceful shutdown.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.serving.metrics import Clock
from repro.serving.policy import PriorityClass, ServingPolicy
from repro.serving.queue import QueuedRequest, shed_victim
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
    #: Which trigger formed it: "size", "deadline", "priority", or "drain".
    trigger: str
    #: Formation order (0-based, per scheduler).
    batch_id: int = 0

    def __len__(self) -> int:
        return len(self.entries)


class MicroBatchScheduler:
    """Groups pending requests by shape key and decides when to dispatch."""

    def __init__(
        self,
        shape_key: ShapeKey,
        max_batch_size: int = 8,
        max_wait_seconds: float = 0.005,
        batch_rows_budget: Optional[int] = None,
        clock: Clock = time.monotonic,
        policy: Optional[ServingPolicy] = None,
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
        self.policy = policy
        self._classes: Dict[str, PriorityClass] = (
            policy.class_map if policy is not None else {}
        )
        self._lock = threading.Lock()
        #: Pending entries per shape key, in admission order.
        self._pending: Dict[Tuple[str, int, int], List[QueuedRequest]] = {}
        #: Keys holding a freshly-arrived entry of a ``preempt`` class.
        self._urgent: Set[Tuple[str, int, int]] = set()
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

    def pending_keys(self) -> List[Tuple[str, int, int]]:
        with self._lock:
            return [key for key, entries in self._pending.items() if entries]

    # ------------------------------------------------------------------
    def add(self, entry: QueuedRequest) -> None:
        """Accept one entry from the admission queue into its shape group."""
        key = self.shape_key(entry.request)
        cls = self._classes.get(entry.class_name)
        with self._lock:
            self._pending.setdefault(key, []).append(entry)
            if cls is not None and cls.preempt:
                self._urgent.add(key)

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
                    self._urgent.discard(key)
        return shed

    def steal_lowest(self, below_priority: int) -> Optional[QueuedRequest]:
        """Remove and return the :func:`~repro.serving.queue.shed_victim`
        among pending entries (same contract as the queue's)."""
        with self._lock:
            victim = shed_victim(
                (e for entries in self._pending.values() for e in entries),
                below_priority,
            )
            if victim is not None:
                key = next(
                    key
                    for key, entries in self._pending.items()
                    if any(e is victim for e in entries)
                )
                # Remove by identity: dataclass __eq__ would compare the
                # numpy payloads element-wise.
                rest = [e for e in self._pending[key] if e is not victim]
                if rest:
                    self._pending[key] = rest
                else:
                    del self._pending[key]
                    self._urgent.discard(key)
            return victim

    @staticmethod
    def _select(
        entries: List[QueuedRequest], limit: int
    ) -> Tuple[List[QueuedRequest], List[QueuedRequest]]:
        """Split ``entries`` into (batch members, remainder).

        Members are chosen by descending priority (admission order among
        equals) but *returned in admission order*: priority decides who
        rides the batch, sequence order decides their slots, so per-batch
        future resolution stays monotonic.  The all-equal fast path is the
        pre-policy FIFO behaviour, bit for bit.
        """
        if len(entries) <= limit:
            return list(entries), []
        first_priority = entries[0].priority
        if all(e.priority == first_priority for e in entries):
            return entries[:limit], entries[limit:]
        chosen = sorted(
            sorted(entries, key=lambda e: (-e.priority, e.sequence))[:limit],
            key=lambda e: e.sequence,
        )
        chosen_set = {id(e) for e in chosen}
        return chosen, [e for e in entries if id(e) not in chosen_set]

    def _visit_order(self) -> List[Tuple[str, int, int]]:
        """Group visit order: highest pending priority first (policy), else
        insertion order (legacy).  Caller holds the lock."""
        keys = [key for key, entries in self._pending.items() if entries]
        if self.policy is None:
            return keys
        return sorted(
            keys,
            key=lambda key: (
                -max(e.priority for e in self._pending[key]),
                min(e.sequence for e in self._pending[key]),
            ),
        )

    def take(
        self, now: Optional[float] = None, flush: bool = False
    ) -> Optional[MicroBatch]:
        """Pop the first batch whose priority, size, or deadline trigger fired.

        The hand-off primitive: whoever can start a batch *now* takes one.
        ``flush`` hands out every pending group regardless of triggers
        (trigger ``"drain"``, the shutdown path).  ``None`` when nothing is
        due.
        """
        if now is None:
            now = self.clock()
        with self._lock:
            for key in self._visit_order():
                entries = self._pending[key]
                limit = self.effective_batch_size(key)
                if flush:
                    trigger = "drain"
                elif key in self._urgent:
                    # A preempting arrival dispatches its group now: the
                    # highest-priority members ride out immediately instead
                    # of waiting for the size trigger to fill.
                    trigger = "priority"
                elif len(entries) >= limit:
                    trigger = "size"
                elif now - entries[0].enqueued_at >= self.max_wait_seconds:
                    trigger = "deadline"
                else:
                    continue
                self._urgent.discard(key)
                chosen, rest = self._select(entries, limit)
                if rest:
                    self._pending[key] = rest
                else:
                    del self._pending[key]
                return self._form(key, chosen, now, trigger)
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

    def _form(
        self,
        key: Tuple[str, int, int],
        entries: List[QueuedRequest],
        now: float,
        trigger: str,
    ) -> MicroBatch:
        batch = MicroBatch(
            key=key,
            entries=list(entries),
            formed_at=now,
            trigger=trigger,
            batch_id=self._batch_counter,
        )
        self._batch_counter += 1
        return batch
