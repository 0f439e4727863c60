"""Consistent-hash routing across N in-process ``FrameServer`` shards.

A :class:`ShardRouter` is the single-box version of a serving cluster:
``num_shards`` independent :class:`~repro.serving.server.FrameServer`
instances (each with its own admission queue, scheduler, and worker pool)
behind one ``submit``.  Placement hashes the request's **warm-shape key**
-- the same ``(task, sampled_size, feature_channels)`` tuple the
micro-batch scheduler groups on -- so all frames of one shape land on one
shard and that shard's workers stay warm for it, while distinct shapes
spread across shards.

The hash is a classic consistent-hash ring (:class:`HashRing`): each shard
contributes ``replicas`` virtual points placed by SHA-1 (Python's builtin
``hash`` is salted per process and would re-deal the ring every run);
lookups take the first point clockwise from the key's hash.  Removing a
shard therefore only re-homes the keys that pointed at it -- the rest of
the ring is untouched, which is what makes :meth:`remove_shard`
*drain-aware*: the ring drops the shard first (new submissions rebalance
immediately), then the shard drains its already-admitted requests to
completion before its snapshot is returned.

Failover: when the ring owner of a key is down (stopped, or its circuit
breaker is open), :meth:`ShardRouter.submit` **walks the ring** to the next
healthy shard instead of failing -- same deterministic order every time,
since the walk is just the ring's own point order.  Each shard is guarded
by a :class:`~repro.serving.resilience.CircuitBreaker` (closed -> open on
consecutive failures -> half-open probe), fed by both submit-time errors
(``QueueClosed``: the shard is gone) and the terminal state of the futures
it accepted.  ``QueueFull`` is backpressure, not sickness: it falls over to
the next shard without charging the breaker.

Observability: :meth:`metrics` merges the per-shard
:class:`~repro.serving.metrics.ServingMetrics` into one view via
``ServingMetrics.merge`` (batch ids and completion indices re-keyed per
source so the per-batch future-ordering check survives) plus the router's
own failover / breaker-trip counters, and :meth:`shard_health` reports
per-shard liveness, breaker state, and stats.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.serving.faults import FaultPlan
from repro.serving.metrics import Clock, ServingMetrics
from repro.serving.policy import LoadShed, RateLimitExceeded, ServingPolicy
from repro.serving.queue import QueueFull
from repro.serving.resilience import (
    CircuitBreaker,
    DeadlineExceeded,
    NoHealthyShard,
    RetryPolicy,
)
from repro.session import (
    FrameLike,
    FrameRequest,
    Session,
    SubmitOptions,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.serving.server import FrameServer

#: Virtual ring points per shard; 64 keeps the key spread within a few
#: percent of uniform without making ring edits noticeable.
DEFAULT_REPLICAS = 64


def _ring_hash(data: str) -> int:
    """Stable 64-bit ring position (SHA-1; ``hash()`` is per-process salted)."""
    return int.from_bytes(hashlib.sha1(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring of named nodes with virtual replicas."""

    def __init__(self, replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._points: List[Tuple[int, str]] = []
        self._names: set = set()

    def add(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"ring already contains {name!r}")
        self._names.add(name)
        for i in range(self.replicas):
            bisect.insort(self._points, (_ring_hash(f"{name}#{i}"), name))

    def remove(self, name: str) -> None:
        if name not in self._names:
            raise KeyError(name)
        self._names.discard(name)
        self._points = [p for p in self._points if p[1] != name]

    def locate(self, key: Any) -> str:
        """Name owning ``key``: first ring point clockwise from its hash."""
        if not self._points:
            raise LookupError("hash ring is empty")
        position = _ring_hash(repr(key))
        index = bisect.bisect_right(self._points, (position, ""))
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._points[index][1]

    def walk(self, key: Any) -> List[str]:
        """Every distinct name clockwise from ``key``'s hash, owner first.

        This is the failover order: the owner, then each next shard in
        ring order -- deterministic for a given ring membership.
        """
        if not self._points:
            raise LookupError("hash ring is empty")
        position = _ring_hash(repr(key))
        start = bisect.bisect_right(self._points, (position, ""))
        seen: List[str] = []
        for offset in range(len(self._points)):
            name = self._points[(start + offset) % len(self._points)][1]
            if name not in seen:
                seen.append(name)
        return seen

    @property
    def names(self) -> List[str]:
        return sorted(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names


class ShardRouter:
    """N in-process FrameServer shards behind one consistent-hash submit.

    Constructor parameters mirror :class:`FrameServer` -- each shard is
    built with the same ``session_factory`` and serving knobs, under the
    name ``{name}-shard-{i}``.
    """

    def __init__(
        self,
        session_factory: Callable[[], Session],
        num_shards: int = 2,
        num_workers: int = 1,
        execution: str = "thread",
        max_batch_size: int = 8,
        max_wait_seconds: float = 0.005,
        queue_capacity: int = 256,
        batch_rows_budget: Optional[int] = None,
        clock: Clock = time.monotonic,
        name: str = "router",
        replicas: int = DEFAULT_REPLICAS,
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_seconds: float = 5.0,
        policy: Optional[ServingPolicy] = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        from repro.serving.server import FrameServer

        self.session_factory = session_factory
        self.num_shards = int(num_shards)
        self.name = name
        self.clock = clock
        #: Router-level counters (failovers, breaker trips); merged into
        #: :meth:`metrics` alongside the shard metrics.
        self.router_metrics = ServingMetrics()
        self.shards: Dict[str, "FrameServer"] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        for i in range(self.num_shards):
            shard_name = f"{name}-shard-{i}"
            self.shards[shard_name] = FrameServer(
                session_factory=session_factory,
                num_workers=num_workers,
                execution=execution,
                max_batch_size=max_batch_size,
                max_wait_seconds=max_wait_seconds,
                queue_capacity=queue_capacity,
                batch_rows_budget=batch_rows_budget,
                clock=clock,
                name=shard_name,
                faults=faults,
                retry_policy=retry_policy,
                policy=policy,
            )
            self._breakers[shard_name] = CircuitBreaker(
                failure_threshold=breaker_failure_threshold,
                reset_seconds=breaker_reset_seconds,
                clock=clock,
            )
        self._ring = HashRing(replicas=replicas)
        self._probe: Optional[Session] = None
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._removed: Dict[str, dict] = {}
        self._started = False
        self._stopped = False

    # -- life cycle ------------------------------------------------------
    def start(self) -> "ShardRouter":
        with self._lock:
            if self._started:
                return self
            if self._stopped:
                raise RuntimeError("ShardRouter cannot be restarted")
            self._probe = self.session_factory()
            self._started = True
        for shard_name, shard in self.shards.items():
            shard.start()
            self._ring.add(shard_name)
        return self

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> dict:
        """Shut every live shard down; returns the merged final stats."""
        with self._lock:
            self._stopped = True
            live = [n for n in self.shards if n not in self._removed]
        for shard_name in live:
            self.shards[shard_name].shutdown(drain=drain, timeout=timeout)
            with self._lock:
                if shard_name in self._ring:
                    self._ring.remove(shard_name)
        return self.stats()

    # -- request entry ---------------------------------------------------
    def route(self, frame: FrameLike) -> str:
        """Shard name that would serve ``frame`` (no submission)."""
        request = FrameRequest.coerce(frame)
        assert self._probe is not None, "router not started"
        key = self._probe.shape_key(request.cloud)
        with self._lock:
            return self._ring.locate(key)

    def submit(
        self,
        frame: FrameLike,
        frame_id: Optional[str] = None,
        options: Optional[SubmitOptions] = None,
    ):
        """Admit one frame on its consistent-hash shard; returns a future.

        Per-request knobs travel as one
        :class:`~repro.session.SubmitOptions`, forwarded untouched to the
        shard.

        When the ring owner is down -- stopped, breaker-open, or erroring
        at submit -- the request **fails over** along the ring to the next
        healthy shard.  ``QueueFull`` also falls over (without charging
        the owner's breaker: backpressure is load, not sickness).  Raises
        :class:`~repro.serving.resilience.NoHealthyShard` when every shard
        was skipped as unhealthy, else re-raises the last submit error.
        """
        if not self._started:
            self.start()
        request = FrameRequest.coerce(frame, index=next(self._counter))
        if frame_id is not None:
            request = dataclasses.replace(request, frame_id=frame_id)
        assert self._probe is not None
        key = self._probe.shape_key(request.cloud)
        with self._lock:
            order = self._ring.walk(key)
        last_error: Optional[BaseException] = None
        for position, shard_name in enumerate(order):
            shard = self.shards[shard_name]
            breaker = self._breakers[shard_name]
            if not shard.running:
                continue
            if not breaker.allow():
                continue
            try:
                future = shard.submit(request, options=options)
            except QueueFull as exc:
                breaker.record_probe_release()
                last_error = exc
                continue
            except Exception as exc:
                # QueueClosed or anything unexpected: the shard is sick.
                if breaker.record_failure():
                    self.router_metrics.record_breaker_trip()
                last_error = exc
                continue
            if position > 0:
                self.router_metrics.record_failover()
            future.add_done_callback(self._breaker_feedback(shard_name))
            return future
        if last_error is not None:
            raise last_error
        raise NoHealthyShard(
            f"no healthy shard for key {key!r}: "
            + ", ".join(
                f"{n}={self._breakers[n].state}"
                + ("" if self.shards[n].running else "/stopped")
                for n in order
            )
        )

    def _breaker_feedback(self, shard_name: str):
        """Done-callback feeding a future's terminal state to the breaker."""
        breaker = self._breakers[shard_name]

        def _observe(future) -> None:
            if future.cancelled():
                breaker.record_probe_release()
                return
            error = future.exception()
            if error is None:
                breaker.record_success()
            elif isinstance(
                error, (DeadlineExceeded, LoadShed, RateLimitExceeded)
            ):
                # A shed deadline says the *client's* TTL ran out before
                # dispatch; load sheds and rate limits are the policy
                # working as configured -- no verdict on shard health.
                breaker.record_probe_release()
            elif breaker.record_failure():
                self.router_metrics.record_breaker_trip()

        return _observe

    # -- membership ------------------------------------------------------
    def remove_shard(self, shard_name: str, drain: bool = True) -> dict:
        """Retire one shard: re-home its keys, drain it, return its stats.

        The ring entry is dropped *before* the drain, so submissions
        arriving mid-drain already rebalance to the surviving shards while
        the retiring shard completes everything it had admitted.
        """
        with self._lock:
            if shard_name not in self.shards:
                raise KeyError(shard_name)
            if shard_name in self._removed:
                return dict(self._removed[shard_name])
            if shard_name in self._ring:
                self._ring.remove(shard_name)
        snapshot = self.shards[shard_name].shutdown(drain=drain)
        with self._lock:
            self._removed[shard_name] = snapshot
        return snapshot

    @property
    def active_shards(self) -> List[str]:
        with self._lock:
            return self._ring.names

    # -- observability ---------------------------------------------------
    def metrics(self) -> ServingMetrics:
        """Merged ServingMetrics across every shard (removed ones included),
        plus the router's own failover / breaker-trip counters."""
        return ServingMetrics.merge(
            [shard.metrics for shard in self.shards.values()]
            + [self.router_metrics]
        )

    def breaker_states(self) -> Dict[str, dict]:
        """Per-shard circuit-breaker state and trip count."""
        return {
            shard_name: {"state": breaker.state, "trips": breaker.trips}
            for shard_name, breaker in self._breakers.items()
        }

    def shard_health(self) -> Dict[str, dict]:
        """Per-shard liveness, breaker state, and live stats snapshot."""
        health: Dict[str, dict] = {}
        with self._lock:
            removed = set(self._removed)
        for shard_name, shard in self.shards.items():
            breaker = self._breakers[shard_name]
            health[shard_name] = {
                "running": shard.running,
                "removed": shard_name in removed,
                "breaker": {"state": breaker.state, "trips": breaker.trips},
                "stats": shard.stats(),
            }
        return health

    def stats(self) -> dict:
        """Merged snapshot plus per-shard and breaker breakdowns."""
        merged = self.metrics().snapshot()
        merged["shards"] = {
            shard_name: shard.stats()
            for shard_name, shard in self.shards.items()
        }
        merged["breakers"] = self.breaker_states()
        return merged
