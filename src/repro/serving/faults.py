"""Deterministic fault injection for the serving stack.

A :class:`FaultPlan` is a seeded, declarative script of failures -- "kill
worker 0 when it starts its 3rd batch", "add 25 ms to every batch worker 1
runs", "corrupt the transport manifest of worker 0's 2nd response" -- that
rides into :class:`~repro.serving.cluster.pool.ProcessWorkerPool` workers
over the fork and is consulted at well-defined points:

* ``on_batch_start(worker, generation, ordinal)`` -- called by the worker
  main loop before executing a batch; applies **slow** faults (sleep) and
  **kill** faults (``os._exit``), in that order.
* ``should_poison(worker, generation, ordinal)`` -- checked after encoding
  a response; :func:`poison_message` then corrupts the manifest so the
  parent's decode raises a ``TransportError`` deterministically (the
  payload bytes are untouched -- corruption is *detected*, never silently
  decoded).

The batch **ordinal** counts batches as they arrive at that worker.  The
process pool routes by load (a busy home spills to an idler sibling), so
which batches a worker sees depends on timing; a spec names a position
in the worker's own arrival sequence, not a global batch id.

Every spec matches a specific worker **generation**; the builders script
generation 0, the original spawn.  A respawned replacement runs
generation >= 1, so a kill spec fires exactly once instead of
crash-looping the replacement -- which is what lets a chaos soak assert
full recovery.

``ThreadWorkerPool`` honours only **slow** faults (killing a thread would
take the whole process down); the process pool honours all three kinds.
The plan is a small picklable value object: determinism comes from the
explicit (worker, generation, ordinal) coordinates, and ``seed`` is carried
so a soak report can name the exact scenario it ran.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Callable, Dict, List

#: Fault kinds.
FAULT_KILL = "kill"
FAULT_SLOW = "slow"
FAULT_POISON = "poison"

_KINDS = (FAULT_KILL, FAULT_SLOW, FAULT_POISON)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scripted fault, addressed by (worker, generation, batch ordinal)."""

    kind: str
    worker_index: int
    #: 0-based ordinal of the worker's batch at which the fault fires.
    after_batches: int
    #: Worker generation the spec applies to (0 = original spawn).
    generation: int = 0
    #: Added latency for ``slow`` faults, seconds.
    delay_seconds: float = 0.0
    #: How many consecutive ordinals a ``slow``/``poison`` fault affects.
    times: int = 1
    #: Exit status used by ``kill`` faults.
    exit_code: int = 86

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.worker_index < 0:
            raise ValueError(f"worker_index must be >= 0, got {self.worker_index}")
        if self.after_batches < 0:
            raise ValueError(f"after_batches must be >= 0, got {self.after_batches}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")

    def matches(self, worker_index: int, generation: int, ordinal: int) -> bool:
        if self.worker_index != worker_index or self.generation != generation:
            return False
        if self.kind == FAULT_KILL:
            return ordinal == self.after_batches
        return self.after_batches <= ordinal < self.after_batches + self.times


class FaultPlan:
    """A seeded, ordered collection of :class:`FaultSpec`.

    Builders chain: ``FaultPlan(seed=42).kill_worker(0, after_batches=2)
    .slow_worker(1, delay_seconds=0.025)``.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.specs: List[FaultSpec] = []

    # -- builders -------------------------------------------------------
    def kill_worker(
        self,
        worker_index: int,
        after_batches: int,
        exit_code: int = 86,
    ) -> "FaultPlan":
        """Kill worker ``worker_index`` as it starts batch ``after_batches``."""
        self.specs.append(
            FaultSpec(
                kind=FAULT_KILL,
                worker_index=worker_index,
                after_batches=after_batches,
                exit_code=exit_code,
            )
        )
        return self

    def slow_worker(
        self,
        worker_index: int,
        delay_seconds: float,
        after_batches: int = 0,
        times: int = 1_000_000,
    ) -> "FaultPlan":
        """Add ``delay_seconds`` to ``times`` batches starting at an ordinal."""
        self.specs.append(
            FaultSpec(
                kind=FAULT_SLOW,
                worker_index=worker_index,
                after_batches=after_batches,
                delay_seconds=delay_seconds,
                times=times,
            )
        )
        return self

    def poison_response(
        self,
        worker_index: int,
        after_batches: int,
        times: int = 1,
    ) -> "FaultPlan":
        """Corrupt the transport manifest of the worker's response(s)."""
        self.specs.append(
            FaultSpec(
                kind=FAULT_POISON,
                worker_index=worker_index,
                after_batches=after_batches,
                times=times,
            )
        )
        return self

    # -- consultation ---------------------------------------------------
    def slow_delay(self, worker_index: int, generation: int, ordinal: int) -> float:
        """Total scripted latency for this batch, seconds (0.0 when none)."""
        return sum(
            spec.delay_seconds
            for spec in self.specs
            if spec.kind == FAULT_SLOW
            and spec.matches(worker_index, generation, ordinal)
        )

    def kill_spec(self, worker_index, generation, ordinal):
        for spec in self.specs:
            if spec.kind == FAULT_KILL and spec.matches(
                worker_index, generation, ordinal
            ):
                return spec
        return None

    def should_poison(self, worker_index: int, generation: int, ordinal: int) -> bool:
        return any(
            spec.kind == FAULT_POISON
            and spec.matches(worker_index, generation, ordinal)
            for spec in self.specs
        )

    def on_batch_start(
        self,
        worker_index: int,
        generation: int,
        ordinal: int,
        sleep: Callable[[float], None] = time.sleep,
        exit: Callable[[int], None] = os._exit,
    ) -> None:
        """Apply slow then kill faults for this batch (worker-side hook)."""
        delay = self.slow_delay(worker_index, generation, ordinal)
        if delay > 0:
            sleep(delay)
        spec = self.kill_spec(worker_index, generation, ordinal)
        if spec is not None:
            exit(spec.exit_code)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary for soak reports."""
        return {
            "seed": self.seed,
            "specs": [dataclasses.asdict(spec) for spec in self.specs],
        }


def poison_message(message):
    """Corrupt a :class:`~repro.serving.cluster.transport.TransportMessage`.

    Inflates the first manifest entry's recorded ``nbytes`` so the reader's
    bounds validation raises ``TransportError`` before any array is built.
    The stored bytes are untouched: a poisoned segment can never silently
    decode into wrong data.
    """
    if not message.manifest:
        return message
    first = message.manifest[0]
    corrupted = dataclasses.replace(first, nbytes=first.nbytes + 1)
    return dataclasses.replace(
        message, manifest=(corrupted,) + tuple(message.manifest[1:])
    )
