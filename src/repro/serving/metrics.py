"""Per-request serving metrics: queue wait, occupancy, latency percentiles.

Every request that travels the serving path leaves one
:class:`RequestRecord` behind -- its submission sequence number, the three
timestamps of its life cycle (enqueued, dispatched to a worker, completed),
and the micro-batch it rode in.  :class:`ServingMetrics` aggregates those
records into the numbers an operator watches: queue-wait and end-to-end
latency percentiles, batch occupancy, dispatch-trigger mix, and throughput.

Determinism contract: the aggregation is a pure function of the recorded
timestamps.  All timestamps come from the clock injected into the serving
components (``time.monotonic`` in production), so a test driving the
pipeline with a manual clock gets exactly reproducible percentiles.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

#: Latency percentiles reported by :meth:`ServingMetrics.snapshot`.
PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class RequestRecord:
    """The life cycle of one served request."""

    #: Submission sequence number (admission order, 0-based).
    sequence: int
    frame_id: str
    #: Clock reading when the request entered the admission queue.
    enqueued_at: float
    #: Clock reading when a worker picked up the request's micro-batch.
    dispatched_at: float
    #: Clock reading when the request's future was resolved.
    completed_at: float
    #: Global completion order (0-based, assigned at resolution time).
    completion_index: int
    #: Micro-batch identity and occupancy this request rode in.
    batch_id: int
    batch_size: int
    #: What dispatched the batch: "size", "deadline", or "drain".
    trigger: str
    #: Name of the worker that served the batch.
    worker: str = ""
    #: False when the future was resolved with an exception.
    ok: bool = True
    #: Serving-policy class the request rode (per-class percentile key).
    class_name: str = "default"

    @property
    def queue_wait(self) -> float:
        return self.dispatched_at - self.enqueued_at

    @property
    def service_time(self) -> float:
        return self.completed_at - self.dispatched_at

    @property
    def latency(self) -> float:
        return self.completed_at - self.enqueued_at


def _percentiles_ms(values: Sequence[float]) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ..., "mean": ..., "max": ...}`` in ms."""
    if not len(values):
        return {f"p{int(q)}": 0.0 for q in PERCENTILES} | {"mean": 0.0, "max": 0.0}
    array = np.asarray(values, dtype=np.float64) * 1e3
    out = {
        f"p{int(q)}": float(np.percentile(array, q)) for q in PERCENTILES
    }
    out["mean"] = float(array.mean())
    out["max"] = float(array.max())
    return out


class ServingMetrics:
    """Thread-safe accumulator for serving counters and request records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[RequestRecord] = []
        self._submitted = 0
        self._rejected = 0
        self._cancelled = 0
        self._completion_counter = 0
        self._sheds = 0
        self._load_sheds = 0
        self._retries = 0
        #: Per-class counters for the typed non-served outcomes.
        self._shed_classes: Dict[str, int] = {}
        self._load_shed_classes: Dict[str, int] = {}

    # -- recording ------------------------------------------------------
    def record_submitted(self) -> int:
        """Count one admitted request; returns its sequence number."""
        with self._lock:
            sequence = self._submitted
            self._submitted += 1
            return sequence

    def record_rejected(self) -> None:
        """Count one request bounced by queue backpressure."""
        with self._lock:
            self._rejected += 1

    def record_admission_failed(self) -> None:
        """Undo a :meth:`record_submitted` whose admission then failed."""
        with self._lock:
            self._submitted -= 1

    def record_cancelled(self) -> None:
        """Count one admitted request dropped without being served."""
        with self._lock:
            self._cancelled += 1

    # -- resilience counters --------------------------------------------
    def record_shed(self, class_name: str = "default") -> None:
        """Count one request resolved ``DeadlineExceeded`` before dispatch."""
        with self._lock:
            self._sheds += 1
            self._shed_classes[class_name] = (
                self._shed_classes.get(class_name, 0) + 1
            )

    def record_load_shed(self, class_name: str = "default") -> None:
        """Count one admitted request resolved ``LoadShed`` (SLO admission)."""
        with self._lock:
            self._load_sheds += 1
            self._load_shed_classes[class_name] = (
                self._load_shed_classes.get(class_name, 0) + 1
            )

    def record_retry(self) -> None:
        """Count one request re-enqueued after a worker crash."""
        with self._lock:
            self._retries += 1

    def next_completion_index(self) -> int:
        """Allocate the next global completion index."""
        with self._lock:
            index = self._completion_counter
            self._completion_counter += 1
            return index

    def record(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)

    # -- aggregation ----------------------------------------------------
    @property
    def records(self) -> List[RequestRecord]:
        with self._lock:
            return list(self._records)

    def futures_monotonic(self) -> bool:
        """Whether resolution order follows admission order within batches.

        Workers resolve a micro-batch's futures in admission order; a
        ``False`` here means a future was resolved with the wrong slot's
        result (or out of order), which the soak gate treats as corruption.
        Ordering across different batches is legitimately interleaved.
        """
        per_batch: Dict[int, List[RequestRecord]] = {}
        for record in self.records:
            per_batch.setdefault(record.batch_id, []).append(record)
        for members in per_batch.values():
            members.sort(key=lambda r: r.completion_index)
            sequences = [r.sequence for r in members]
            if sequences != sorted(sequences):
                return False
        return True

    def snapshot(self) -> Dict[str, Any]:
        """Aggregate the records into a JSON-friendly report."""
        records = self.records
        with self._lock:
            submitted, rejected = self._submitted, self._rejected
            cancelled = self._cancelled
            sheds = self._sheds
            load_sheds = self._load_sheds
            retries = self._retries
            shed_classes = dict(self._shed_classes)
            load_shed_classes = dict(self._load_shed_classes)
        completed = [r for r in records if r.ok]
        failed = [r for r in records if not r.ok]

        batches: Dict[int, RequestRecord] = {}
        for record in records:
            batches.setdefault(record.batch_id, record)
        occupancies = [r.batch_size for r in batches.values()]
        triggers = dict(Counter(r.trigger for r in batches.values()))

        # Work per worker name, so an idle worker shows.
        frames = Counter(r.worker for r in completed)
        per_worker = {
            name: {"completed": frames[name], "batches": count}
            for name, count in sorted(
                Counter(r.worker for r in batches.values()).items()
            )
        }

        throughput = 0.0
        if completed:
            span = max(r.completed_at for r in completed) - min(
                r.enqueued_at for r in completed
            )
            throughput = len(completed) / span if span > 0 else float(len(completed))

        return {
            "requests": {
                "submitted": submitted,
                "rejected": rejected,
                "completed": len(completed),
                "failed": len(failed),
                #: Admitted but never served (cancelled at shutdown) --
                #: final-state losses, not work still in the pipeline.
                "dropped": cancelled,
                #: Resolved ``DeadlineExceeded`` before dispatch (TTL shed) --
                #: a typed result, not a loss.
                "shed": sheds,
                #: Resolved ``LoadShed`` by SLO-aware admission -- also a
                #: typed result, never a silent drop.
                "load_shed": load_sheds,
                #: Admitted and still queued/executing (0 after a drain).
                "in_flight": (
                    submitted
                    - len(completed)
                    - len(failed)
                    - cancelled
                    - sheds
                    - load_sheds
                ),
            },
            "queue_wait_ms": _percentiles_ms([r.queue_wait for r in completed]),
            "service_ms": _percentiles_ms([r.service_time for r in completed]),
            "latency_ms": _percentiles_ms([r.latency for r in completed]),
            "per_class": self._per_class(
                completed, failed, shed_classes, load_shed_classes
            ),
            "per_worker": per_worker,
            "batches": {
                "count": len(batches),
                "mean_occupancy": (
                    float(np.mean(occupancies)) if occupancies else 0.0
                ),
                "max_occupancy": max(occupancies) if occupancies else 0,
                "triggers": triggers,
            },
            "throughput_rps": throughput,
            "futures_monotonic": self.futures_monotonic(),
            "resilience": {
                #: Requests re-enqueued after a worker crash (per request,
                #: per re-dispatch -- one request retried twice counts 2).
                "retries": retries,
                "deadline_sheds": sheds,
                "load_sheds": load_sheds,
            },
        }

    @staticmethod
    def _per_class(
        completed: List[RequestRecord],
        failed: List[RequestRecord],
        shed_classes: Dict[str, int],
        load_shed_classes: Dict[str, int],
    ) -> Dict[str, Dict[str, Any]]:
        """Per-priority-class breakdown: counters + latency percentiles."""
        names = (
            {r.class_name for r in completed}
            | {r.class_name for r in failed}
            | set(shed_classes)
            | set(load_shed_classes)
        )
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(names):
            done = [r for r in completed if r.class_name == name]
            out[name] = {
                "completed": len(done),
                "failed": sum(1 for r in failed if r.class_name == name),
                "shed": shed_classes.get(name, 0),
                "load_shed": load_shed_classes.get(name, 0),
                "queue_wait_ms": _percentiles_ms([r.queue_wait for r in done]),
                "latency_ms": _percentiles_ms([r.latency for r in done]),
            }
        return out


#: Type of the injectable clock shared by the serving components.
Clock = Callable[[], float]


class ManualClock:
    """A settable clock for deterministic tests (monotonic by convention)."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += float(seconds)
        return self.now
