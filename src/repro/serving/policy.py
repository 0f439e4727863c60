"""Serving policy: priority classes, rate limits, adaptive wait, SLO shedding.

This module is the front-of-queue policy layer from ROADMAP item 3.  A
:class:`ServingPolicy` is a declarative bundle the
:class:`~repro.serving.server.FrameServer` threads through its admission
queue and :class:`~repro.serving.scheduler.MicroBatchScheduler`:

* **Priority classes** (:class:`PriorityClass`): every request carries a
  class name; higher ``priority`` wins scheduler ordering, a ``preempt``
  class's arrival dispatches its shape group immediately (trigger
  ``"priority"``) instead of waiting for the size trigger, and a per-class
  ``max_wait_seconds`` caps the deadline trigger below the scheduler's own.
  ``slo_ms`` declares the class's p99 budget -- the soak and benchmark
  gates read it; the scheduler does not.
* **Token-bucket rate limits** (:class:`TokenBucket`): per warm-shape-key
  buckets refilled on the injected clock; a denied submit resolves the
  future with :class:`RateLimitExceeded` (typed, never silent).
* **Adaptive max-wait** (:class:`AdaptiveMaxWait`): the deadline trigger
  tracks the observed arrival rate -- an EWMA of inter-arrival gaps on the
  injectable clock -- waiting only as long as ``max_batch - 1`` companions
  plausibly take to arrive, clamped between a floor and the configured
  ``max_wait_seconds`` ceiling (adaptation only ever *shortens* the wait;
  the configured cap stays the tail-latency bound).
* **SLO-aware admission** (``admission="shed"``): instead of raising
  :class:`~repro.serving.queue.QueueFull`, an over-backlog submit sheds the
  lowest-priority pending work -- a strictly lower-priority victim when one
  exists, else the incoming request itself -- resolving the shed future
  with :class:`LoadShed`.  Nothing is ever dropped silently and ``submit``
  never raises for backpressure.

Every decision runs on the serving subsystem's injected clock, so tests
drive all of it deterministically with a
:class:`~repro.serving.metrics.ManualClock`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.serving.metrics import Clock


class LoadShed(RuntimeError):
    """Typed result of SLO-aware admission shedding this request.

    Raised *through the future*, never from ``submit``: under
    ``admission="shed"`` an over-backlog submit resolves either a pending
    lower-priority victim or the incoming request itself with this
    exception instead of raising ``QueueFull``.
    """


class RateLimitExceeded(RuntimeError):
    """Typed result of a per-shape-key token bucket denying admission."""


@dataclass(frozen=True)
class PriorityClass:
    """One traffic class: a name, a rank, and its scheduling overrides."""

    name: str
    #: Scheduler rank; higher wins grouping order and survives shedding.
    priority: int = 0
    #: Declared p99 latency budget in ms (enforced by soak/bench gates,
    #: observed via the per-class percentiles in ``ServingMetrics``).
    slo_ms: Optional[float] = None
    #: Per-class cap on the deadline trigger; ``None`` defers to the
    #: scheduler's (possibly adaptive) wait.
    max_wait_seconds: Optional[float] = None
    #: Arrival of this class preempts the size trigger: its shape group
    #: dispatches immediately with trigger ``"priority"``.
    preempt: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("priority class name must be non-empty")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be > 0, got {self.slo_ms}")
        if self.max_wait_seconds is not None and self.max_wait_seconds < 0:
            raise ValueError(
                f"max_wait_seconds must be >= 0, got {self.max_wait_seconds}"
            )


class TokenBucket:
    """A deterministic token bucket on an injectable clock.

    ``rate_hz`` tokens accrue per second up to ``burst`` capacity; the
    bucket starts full.  Refill happens lazily inside :meth:`try_acquire`
    from the elapsed clock time, so a test advancing a
    :class:`~repro.serving.metrics.ManualClock` gets exact token
    accounting (no background thread, no wall-clock reads).
    """

    def __init__(
        self, rate_hz: float, burst: int = 8, clock: Clock = time.monotonic
    ):
        if rate_hz <= 0:
            raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_hz = float(rate_hz)
        self.burst = int(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; ``False`` means rate-limited."""
        with self._lock:
            now = self.clock()
            elapsed = max(0.0, now - self._refilled_at)
            self._refilled_at = now
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate_hz
            )
            if self._tokens + 1e-9 < tokens:
                return False
            self._tokens -= tokens
            return True

    @property
    def tokens(self) -> float:
        """Current token count (as of the last acquire; no refill)."""
        with self._lock:
            return self._tokens


class AdaptiveMaxWait:
    """Deadline-trigger wait tuned to the observed arrival rate.

    Tracks an exponentially weighted moving average of inter-arrival gaps
    (``alpha`` weight on the newest gap) and proposes waiting
    ``(max_batch - 1) * mean_gap`` seconds for companions -- the time a
    full batch plausibly takes to assemble at the observed rate.  The
    proposal is clamped to ``[floor_seconds, base_wait_seconds]``: under
    heavy traffic the wait collapses toward the floor (companions arrive
    fast; waiting longer only adds latency), under sparse traffic it rises
    to -- never past -- the configured ceiling.  Until two arrivals have
    been observed there is no gap to average and :meth:`current` returns
    the base wait.
    """

    def __init__(
        self,
        base_wait_seconds: float,
        floor_seconds: float = 0.0005,
        alpha: float = 0.2,
        batch_size: int = 8,
    ):
        if base_wait_seconds < 0:
            raise ValueError(
                f"base_wait_seconds must be >= 0, got {base_wait_seconds}"
            )
        if floor_seconds < 0:
            raise ValueError(f"floor_seconds must be >= 0, got {floor_seconds}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.base_wait_seconds = float(base_wait_seconds)
        self.floor_seconds = min(float(floor_seconds), self.base_wait_seconds)
        self.alpha = float(alpha)
        self.batch_size = int(batch_size)
        self._last_arrival: Optional[float] = None
        self._mean_gap: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, now: float) -> None:
        """Feed one arrival timestamp (the entry's ``enqueued_at``)."""
        with self._lock:
            if self._last_arrival is not None:
                gap = max(0.0, now - self._last_arrival)
                if self._mean_gap is None:
                    self._mean_gap = gap
                else:
                    self._mean_gap += self.alpha * (gap - self._mean_gap)
            self._last_arrival = now

    def current(self) -> float:
        """The effective deadline-trigger wait right now (seconds)."""
        with self._lock:
            if self._mean_gap is None:
                return self.base_wait_seconds
            proposal = (self.batch_size - 1) * self._mean_gap
            return min(
                self.base_wait_seconds, max(self.floor_seconds, proposal)
            )

    @property
    def mean_interarrival(self) -> Optional[float]:
        with self._lock:
            return self._mean_gap


#: Recognised values of ``ServingPolicy.admission``.
ADMISSION_MODES = ("reject", "shed")


@dataclass(frozen=True)
class ServingPolicy:
    """Declarative serving policy threaded through queue and scheduler.

    ``classes`` must contain ``default_class``; requests submitted without
    an explicit class ride it.  ``admission="reject"`` keeps the legacy
    ``QueueFull`` backpressure; ``"shed"`` switches to SLO-aware admission
    (see module docstring).  ``max_backlog`` is the shed threshold on
    requests admitted but not yet started (queued or grouped); it tightens
    the server's queue capacity, which is the threshold when ``None``.
    """

    classes: Tuple[PriorityClass, ...] = (PriorityClass("default"),)
    default_class: str = "default"
    admission: str = "reject"
    max_backlog: Optional[int] = None
    #: Per-shape-key token-bucket rate (``None`` disables rate limiting).
    rate_limit_hz: Optional[float] = None
    rate_limit_burst: int = 8
    adaptive_max_wait: bool = False
    #: Floor of the adaptive wait (ignored unless ``adaptive_max_wait``).
    min_wait_seconds: float = 0.0005
    adaptive_alpha: float = 0.2

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("policy needs at least one priority class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate priority class names: {names}")
        if self.default_class not in names:
            raise ValueError(
                f"default_class {self.default_class!r} is not one of {names}"
            )
        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, "
                f"got {self.admission!r}"
            )
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1, got {self.max_backlog}")
        if self.rate_limit_hz is not None and self.rate_limit_hz <= 0:
            raise ValueError(
                f"rate_limit_hz must be > 0, got {self.rate_limit_hz}"
            )
        if self.rate_limit_burst < 1:
            raise ValueError(
                f"rate_limit_burst must be >= 1, got {self.rate_limit_burst}"
            )

    @property
    def class_map(self) -> Dict[str, PriorityClass]:
        return {cls.name: cls for cls in self.classes}

    def class_named(self, name: str) -> PriorityClass:
        try:
            return self.class_map[name]
        except KeyError:
            raise KeyError(
                f"unknown priority class {name!r}; "
                f"policy classes: {sorted(self.class_map)}"
            ) from None

    def resolve(
        self,
        class_name: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> Tuple[PriorityClass, int]:
        """Map a request's submit options to ``(class, effective priority)``.

        An explicit ``priority`` overrides the class's rank for this one
        request (the class still governs preemption and per-class wait).
        """
        cls = self.class_named(
            class_name if class_name is not None else self.default_class
        )
        return cls, (cls.priority if priority is None else int(priority))

    def make_bucket(self, clock: Clock) -> Optional[TokenBucket]:
        """A fresh per-shape-key token bucket, or ``None`` when unlimited."""
        if self.rate_limit_hz is None:
            return None
        return TokenBucket(
            rate_hz=self.rate_limit_hz,
            burst=self.rate_limit_burst,
            clock=clock,
        )

    def make_adaptive_wait(
        self, base_wait_seconds: float, batch_size: int
    ) -> Optional[AdaptiveMaxWait]:
        if not self.adaptive_max_wait:
            return None
        return AdaptiveMaxWait(
            base_wait_seconds=base_wait_seconds,
            floor_seconds=self.min_wait_seconds,
            alpha=self.adaptive_alpha,
            batch_size=batch_size,
        )

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary for soak/bench reports."""
        return {
            "classes": [
                {
                    "name": cls.name,
                    "priority": cls.priority,
                    "slo_ms": cls.slo_ms,
                    "max_wait_ms": (
                        None
                        if cls.max_wait_seconds is None
                        else cls.max_wait_seconds * 1e3
                    ),
                    "preempt": cls.preempt,
                }
                for cls in self.classes
            ],
            "default_class": self.default_class,
            "admission": self.admission,
            "max_backlog": self.max_backlog,
            "rate_limit_hz": self.rate_limit_hz,
            "rate_limit_burst": self.rate_limit_burst,
            "adaptive_max_wait": self.adaptive_max_wait,
        }
