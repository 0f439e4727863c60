"""Resilience policies for the serving stack: typed errors and retry.

The serving pipeline recomputes rather than replays: responses are
bit-identical functions of the request (serving sessions run cache-less and
seed per-frame RNG from the frame id), so any failed attempt is idempotent
to redo.  That one property makes the policies in this module safe:

* :class:`RetryPolicy` -- capped exponential backoff with *seeded* jitter
  for re-enqueueing the surviving requests of a crashed worker's in-flight
  batches.  The jitter stream is a deterministic function of the seed, so a
  chaos test replays the exact same schedule every run.
* Typed terminal errors -- an admitted request never disappears: its future
  resolves with a response, :class:`DeadlineExceeded` (shed before
  dispatch), or :class:`RetriesExhausted` (crash recovery gave up).

Everything here is policy, not mechanism: the queue/scheduler/pool call
into these objects but own the threading and the futures themselves.
"""

from __future__ import annotations

import threading

import numpy as np


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before a worker picked it up."""


class RetriesExhausted(RuntimeError):
    """Crash recovery re-dispatched the request too many times and gave up."""


class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    ``max_attempts`` counts *dispatches*: 1 means fail on the first crash
    (the pre-retry behaviour), 3 means the original dispatch plus up to two
    re-dispatches.  Delays double from ``base_delay_seconds`` up to
    ``max_delay_seconds``, each stretched by a jitter factor drawn from a
    seeded RNG -- deterministic given the seed and the call order.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_seconds: float = 0.05,
        max_delay_seconds: float = 1.0,
        jitter: float = 0.25,
        seed: int = 0,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay_seconds < 0:
            raise ValueError(
                f"base_delay_seconds must be >= 0, got {base_delay_seconds}"
            )
        if max_delay_seconds < base_delay_seconds:
            raise ValueError(
                "max_delay_seconds must be >= base_delay_seconds "
                f"({max_delay_seconds} < {base_delay_seconds})"
            )
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = int(max_attempts)
        self.base_delay_seconds = float(base_delay_seconds)
        self.max_delay_seconds = float(max_delay_seconds)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def exhausted(self, attempts: int) -> bool:
        """Whether a request dispatched ``attempts`` times is out of tries."""
        return attempts >= self.max_attempts

    def delay(self, attempts: int) -> float:
        """Backoff before dispatch number ``attempts + 1`` (attempts >= 1)."""
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        base = min(
            self.max_delay_seconds,
            self.base_delay_seconds * (2.0 ** (attempts - 1)),
        )
        if self.jitter == 0.0:
            return base
        with self._lock:
            stretch = 1.0 + self.jitter * float(self._rng.random())
        return base * stretch
