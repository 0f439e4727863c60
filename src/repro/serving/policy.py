"""Serving policy: priority classes and SLO-aware admission shedding.

A :class:`ServingPolicy` is a declarative bundle the
:class:`~repro.serving.server.FrameServer` threads through its admission
queue and :class:`~repro.serving.scheduler.MicroBatchScheduler`:

* **Priority classes** (:class:`PriorityClass`): every request carries a
  class name and rides with its class's ``priority``; higher wins
  scheduler ordering, and a ``preempt`` class's arrival dispatches its
  shape group immediately (trigger ``"priority"``) instead of waiting for
  the size or deadline trigger.  ``slo_ms`` declares the class's p99
  budget -- the soak and benchmark gates read it; the scheduler does not.
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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class LoadShed(RuntimeError):
    """Typed result of SLO-aware admission shedding this request.

    Raised *through the future*, never from ``submit``: under
    ``admission="shed"`` an over-backlog submit resolves either a pending
    lower-priority victim or the incoming request itself with this
    exception instead of raising ``QueueFull``.
    """


@dataclass(frozen=True)
class PriorityClass:
    """One traffic class: a name, a rank, an SLO and a preemption flag."""

    name: str
    #: Scheduler rank; higher wins grouping order and survives shedding.
    priority: int = 0
    #: Declared p99 latency budget in ms (enforced by soak/bench gates,
    #: observed via the per-class percentiles in ``ServingMetrics``).
    slo_ms: Optional[float] = None
    #: Arrival of this class preempts the size trigger: its shape group
    #: dispatches immediately with trigger ``"priority"``.
    preempt: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("priority class name must be non-empty")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be > 0, got {self.slo_ms}")


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
    the server's queue capacity, which is the threshold when ``None``, and
    only exists under ``admission="shed"``.
    """

    classes: Tuple[PriorityClass, ...] = (PriorityClass("default"),)
    default_class: str = "default"
    admission: str = "reject"
    max_backlog: Optional[int] = None

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
        if self.max_backlog is not None:
            if self.max_backlog < 1:
                raise ValueError(
                    f"max_backlog must be >= 1, got {self.max_backlog}"
                )
            if self.admission != "shed":
                raise ValueError(
                    "max_backlog is the shed threshold and needs "
                    f"admission='shed', got admission={self.admission!r}"
                )

    @property
    def class_map(self) -> Dict[str, PriorityClass]:
        return {cls.name: cls for cls in self.classes}

    def resolve(self, class_name: Optional[str] = None) -> PriorityClass:
        """The class a request submitted under ``class_name`` rides
        (``default_class`` when ``None``)."""
        name = class_name if class_name is not None else self.default_class
        try:
            return self.class_map[name]
        except KeyError:
            raise KeyError(
                f"unknown priority class {name!r}; "
                f"policy classes: {sorted(self.class_map)}"
            ) from None

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary for soak/bench reports."""
        return {
            "classes": [
                {
                    "name": cls.name,
                    "priority": cls.priority,
                    "slo_ms": cls.slo_ms,
                    "preempt": cls.preempt,
                }
                for cls in self.classes
            ],
            "default_class": self.default_class,
            "admission": self.admission,
            "max_backlog": self.max_backlog,
        }
