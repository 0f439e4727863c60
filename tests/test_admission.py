"""The one-class waiting room: admission, TTLs, triggers and shutdown.

Every request is one traffic class.  A full waiting room refuses the
arrival -- ``QueueFull`` raised under ``admission="reject"``, a future
resolved with ``LoadShed`` under ``admission="shed"`` -- and never a
request already admitted.

:class:`TestWaitingRoomMachine` drives a real :class:`FrameServer`'s queue,
shape groups and hand-off on a :class:`ManualClock` with a hypothesis state
machine; a manual pool stands in for the workers, so every step is
deterministic and nothing sleeps.  The gated-server tests pin the same
contract through a live thread worker.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future
from typing import Any, Dict, List, Optional

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.datasets.synthetic import sample_cad_shape
from repro.geometry.pointcloud import PointCloud
from repro.serving import (
    AdmissionQueue,
    DeadlineExceeded,
    FrameServer,
    LoadShed,
    ManualClock,
    MicroBatch,
    MicroBatchScheduler,
    QueueClosed,
    QueuedRequest,
    QueueFull,
    ServeConfig,
    SubmitOptions,
)
from repro.serving.cluster.pool import WorkerPool
from repro.session import FrameRequest, Session


def small_config(num_samples: int = 64) -> HgPCNConfig:
    return HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=num_samples, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=16, neighbors_per_centroid=8, seed=0
        ),
    )


def make_request(seed: int, points: int = 400) -> FrameRequest:
    return FrameRequest(
        cloud=sample_cad_shape(
            points, shape="box", non_uniformity=0.2, seed=seed
        ),
        frame_id=f"req{seed:04d}",
    )


def make_session() -> Session:
    return Session(
        config=small_config(),
        task="semantic_segmentation",
        sampler="random",
        response_cache_size=0,
    )


# ----------------------------------------------------------------------
# The waiting room as a state machine on a manual clock
# ----------------------------------------------------------------------
class ManualPool(WorkerPool):
    """Workers the test drives by hand: ``idle()`` answers what the last
    take said, and a completed batch goes through the pools' shared
    completion path (futures in admission order, one record each)."""

    def __init__(self, server: FrameServer):
        super().__init__(
            session_factory=server.session_factory,
            num_workers=1,
            metrics=server.metrics,
            clock=server.clock,
            name="manual",
            next_batch=server._next_batch,
            shed_entry=server._shed_entry,
        )
        self.idle_now = True
        #: Batches taken and not yet completed, oldest first.
        self.running: List[MicroBatch] = []

    def shape_key(self, cloud):
        # Two sizes of frame, two shape groups.
        return ("task", cloud.num_points, 0)

    def idle(self) -> bool:
        return self.idle_now

    def complete(self, batch: MicroBatch) -> None:
        self.running.remove(batch)
        self._complete_batch(
            batch,
            batch.formed_at,
            self.clock(),
            [f"served:{entry.request.frame_id}" for entry in batch.entries],
            None,
            self.name,
        )

    def join(self, timeout: Optional[float] = None) -> None:
        # What the workers do at shutdown: finish what runs, then take
        # from the closed hand-off (which never waits once closed) until
        # it ends the stream.
        while self.running:
            self.complete(self.running[0])
        while (batch := self._next_batch()) is not None:
            self.running.append(batch)
            self.complete(batch)


#: Two frames of two sizes; every submit reuses one under a fresh id.
CLOUDS = {
    size: PointCloud(points=np.arange(size * 3, dtype=np.float64).reshape(size, 3))
    for size in (4, 8)
}
OUTCOMES = {"served", "DeadlineExceeded", "LoadShed", "QueueFull", "cancelled"}


class WaitingRoom(RuleBasedStateMachine):
    """Submit, advance the clock, take, complete and shut down; every
    request must end exactly once, typed, and the bound must hold."""

    @initialize(
        admission=st.sampled_from(["reject", "shed"]),
        capacity=st.integers(1, 4),
        max_batch=st.integers(1, 3),
    )
    def start(self, admission: str, capacity: int, max_batch: int) -> None:
        self.clock = ManualClock()
        self.capacity = capacity
        self.shed_mode = admission == "shed"
        self.server = FrameServer(
            session_factory=lambda: None,
            max_batch_size=max_batch,
            max_wait_seconds=0.005,
            queue_capacity=capacity,
            clock=self.clock,
            admission=admission,
        )
        self.pool = ManualPool(self.server)
        # Stand the manual pool in for the one ``start()`` would build.
        self.server.pool = self.pool
        self.server._started = True
        self.submitted = 0
        self.futures: Dict[str, Any] = {}
        self.refused: List[str] = []
        self.resolutions: Dict[str, int] = {}
        self.taken: Dict[Any, List[int]] = {}
        self.stopped = False

    def waiting(self) -> int:
        return len(self.server.admission) + self.server.scheduler.pending_count

    def unexpired_waiting(self) -> int:
        """Waiting entries not yet past their TTL: a full room sheds the
        rest, queued or held in a shape group, before it refuses."""
        now = self.clock()
        groups = self.server.scheduler._pending.values()
        entries = [*self.server.admission._entries, *(e for g in groups for e in g)]
        return sum(not entry.expired(now) for entry in entries)

    @rule(
        size=st.sampled_from(sorted(CLOUDS)),
        ttl=st.one_of(st.none(), st.sampled_from([0.001, 0.004, 0.005, 0.02])),
    )
    def submit(self, size: int, ttl: Optional[float]) -> None:
        if self.stopped:
            with pytest.raises(QueueClosed):
                self.server.submit(CLOUDS[size])
            return
        frame_id = f"r{self.submitted}"
        self.submitted += 1
        full = self.unexpired_waiting() >= self.capacity
        try:
            future = self.server.submit(
                CLOUDS[size], frame_id=frame_id, options=SubmitOptions(ttl=ttl)
            )
        except QueueFull:
            assert not self.shed_mode, "shed admission raised QueueFull"
            assert full, "QueueFull with room to spare"
            self.refused.append(frame_id)
            return
        self.futures[frame_id] = future
        self.resolutions[frame_id] = 0

        def count(_, frame_id=frame_id):
            self.resolutions[frame_id] += 1

        future.add_done_callback(count)
        if future.done() and isinstance(future.exception(), LoadShed):
            assert self.shed_mode and full, "LoadShed with room to spare"

    @rule(seconds=st.sampled_from([0.0, 0.001, 0.004, 0.005, 0.02]))
    def advance(self, seconds: float) -> None:
        self.clock.advance(seconds)

    @precondition(lambda self: not self.stopped)
    @rule(idle=st.booleans())
    def take(self, idle: bool) -> None:
        self.pool.idle_now = idle
        with self.server._handoff:
            batch, closing, now = self.server._take_now()
        assert not closing
        if batch is None:
            return
        sequences = [entry.sequence for entry in batch.entries]
        assert sequences == sorted(sequences), "batch out of admission order"
        # A shape group is FIFO: no later batch carries an older request.
        earlier = self.taken.setdefault(batch.key, [])
        assert not earlier or sequences[0] > earlier[-1]
        earlier.extend(sequences)
        for entry in batch.entries:
            assert not entry.future.done(), "a started request already ended"
            assert entry.deadline is None or entry.deadline > now, (
                "an expired request was started"
            )
        if batch.trigger == "idle":
            assert idle
        self.pool.running.append(batch)

    @precondition(lambda self: self.pool.running and not self.stopped)
    @rule(data=st.data())
    def complete(self, data) -> None:
        batch = data.draw(st.sampled_from(self.pool.running))
        self.pool.complete(batch)

    @precondition(lambda self: not self.stopped)
    @rule(drain=st.booleans())
    def shutdown(self, drain: bool) -> None:
        self.server.shutdown(drain=drain)
        self.stopped = True

    @invariant()
    def bound_holds(self) -> None:
        assert self.waiting() <= self.capacity

    @invariant()
    def resolved_at_most_once(self) -> None:
        assert all(count <= 1 for count in self.resolutions.values())

    def teardown(self) -> None:
        if not hasattr(self, "server"):
            return
        if not self.stopped:
            self.server.shutdown(drain=True)
        outcomes = {frame_id: "QueueFull" for frame_id in self.refused}
        for frame_id, future in self.futures.items():
            assert future.done(), f"{frame_id} never ended"
            assert self.resolutions[frame_id] == 1
            if future.cancelled():
                outcomes[frame_id] = "cancelled"
            elif future.exception() is not None:
                outcomes[frame_id] = type(future.exception()).__name__
            else:
                assert future.result() == f"served:{frame_id}"
                outcomes[frame_id] = "served"
        assert len(outcomes) == self.submitted
        assert set(outcomes.values()) <= OUTCOMES
        counts = {name: 0 for name in OUTCOMES}
        for outcome in outcomes.values():
            counts[outcome] += 1
        requests = self.server.metrics.snapshot()["requests"]
        assert requests["completed"] == counts["served"]
        assert requests["shed"] == counts["DeadlineExceeded"]
        assert requests["load_shed"] == counts["LoadShed"]
        assert requests["rejected"] == counts["QueueFull"]
        assert requests["dropped"] == counts["cancelled"]
        assert requests["failed"] == 0 and requests["in_flight"] == 0
        assert self.server.metrics.futures_monotonic()
        served = [r for r in self.server.metrics.records if r.ok]
        assert sorted(r.frame_id for r in served) == sorted(
            f for f, outcome in outcomes.items() if outcome == "served"
        )


TestWaitingRoomMachine = WaitingRoom.TestCase
TestWaitingRoomMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


@pytest.mark.parametrize("admission", ["reject", "shed"])
def test_an_expired_held_entry_frees_its_slot(admission):
    """A request past its TTL in a shape group (popped from the queue while
    every worker is busy) is shed to admit an arrival, not counted as
    occupying the full room."""
    clock = ManualClock()
    server = FrameServer(
        session_factory=lambda: None,
        queue_capacity=1,
        clock=clock,
        admission=admission,
    )
    server.pool = pool = ManualPool(server)
    server._started = True
    pool.idle_now = False
    expired = server.submit(
        CLOUDS[4], frame_id="old", options=SubmitOptions(ttl=0.001)
    )
    with server._handoff:
        batch, _, _ = server._take_now()
    assert batch is None and server.scheduler.pending_count == 1
    clock.advance(0.002)
    arrival = server.submit(CLOUDS[4], frame_id="new")
    with pytest.raises(DeadlineExceeded):
        expired.result(timeout=0)
    assert not arrival.done()
    assert (len(server.admission), server.scheduler.pending_count) == (1, 0)
    snapshot = server.shutdown(drain=True)
    assert arrival.result(timeout=0) == "served:new"
    requests = snapshot["requests"]
    assert (requests["shed"], requests["completed"]) == (1, 1)
    assert requests["rejected"] == requests["load_shed"] == 0


# ----------------------------------------------------------------------
# The same contract through a live thread worker
# ----------------------------------------------------------------------
def gated_server(**options):
    """A one-worker server whose worker holds every batch until ``gate`` is
    set: admitted work then waits for the *worker*, under the real 5 ms
    deadline trigger, not behind a long ``max_wait_seconds``."""
    gate, entered = threading.Event(), threading.Event()

    class GatedSession(Session):
        def run_batch(self, frames, batch_size=None):
            entered.set()
            gate.wait(30.0)
            return super().run_batch(frames, batch_size)

    server = FrameServer(
        session_factory=lambda: GatedSession(
            config=small_config(), task="semantic_segmentation",
            sampler="random", response_cache_size=0,
        ),
        num_workers=1,
        max_batch_size=8,
        max_wait_seconds=0.005,
        **options,
    )
    return server, gate, entered


class TestFullWaitingRoom:
    def test_shed_admission_sheds_the_arrival_not_the_waiting(self):
        server, gate, entered = gated_server(admission="shed", queue_capacity=1)
        with server:
            running = server.submit(make_request(9))
            assert entered.wait(10.0)  # the worker is busy from here on
            waiting = server.submit(make_request(0))
            arrivals = [server.submit(make_request(i)) for i in (1, 2)]
            # The room holds one: each later arrival is shed at once,
            # typed, while the request already waiting keeps its slot.
            for arrival in arrivals:
                with pytest.raises(LoadShed, match="shed at admission"):
                    arrival.result(timeout=5.0)
            gate.set()
            snapshot = server.shutdown(drain=True)
        assert running.result(timeout=5.0).request.frame_id == "req0009"
        assert waiting.result(timeout=5.0).request.frame_id == "req0000"
        requests = snapshot["requests"]
        assert (requests["completed"], requests["load_shed"]) == (2, 2)
        assert requests["rejected"] == 0 and requests["in_flight"] == 0

    def test_reject_admission_raises_at_the_door(self):
        server, gate, entered = gated_server(queue_capacity=1)
        with server:
            server.submit(make_request(9))
            assert entered.wait(10.0)
            waiting = server.submit(make_request(0))
            with pytest.raises(QueueFull):
                server.submit(make_request(1))
            gate.set()
            snapshot = server.shutdown(drain=True)
        assert waiting.result(timeout=5.0).request.frame_id == "req0000"
        requests = snapshot["requests"]
        assert (requests["completed"], requests["rejected"]) == (2, 1)
        assert requests["load_shed"] == 0 and requests["in_flight"] == 0

    def test_cancelled_on_shutdown_without_drain(self):
        server, gate, entered = gated_server(queue_capacity=4)
        with server:
            server.submit(make_request(9))
            assert entered.wait(10.0)
            waiting = [server.submit(make_request(i)) for i in range(3)]
            gate.set()
            snapshot = server.shutdown(drain=False)
        ended = 0
        for future in waiting:
            try:
                future.result(timeout=5.0)
            except CancelledError:
                pass
            ended += 1
        assert ended == 3
        requests = snapshot["requests"]
        assert requests["completed"] + requests["dropped"] == 4
        assert requests["in_flight"] == 0

    def test_admission_mode_validated(self):
        with pytest.raises(ValueError, match="admission"):
            FrameServer(session_factory=make_session, admission="panic")
        with pytest.raises(TypeError):
            FrameServer(session_factory=make_session, policy=None)


# ----------------------------------------------------------------------
# One class, one order: what replaced priority ordering
# ----------------------------------------------------------------------
def make_entry(sequence: int, clock: ManualClock, points: int = 400) -> QueuedRequest:
    return QueuedRequest(
        request=make_request(sequence, points=points),
        future=Future(),
        sequence=sequence,
        enqueued_at=clock(),
    )


def by_points(request: FrameRequest):
    """A shape key with one group per raw frame size."""
    return ("task", request.cloud.num_points, 3)


class TestOneClassOrder:
    """No arrival fires a trigger of its own, groups leave in the order they
    formed, and a batch takes its group's oldest members.  Waits are powers
    of two so the manual clock's sums are exact."""

    def make_scheduler(self, clock, **overrides):
        options = dict(
            shape_key=by_points, max_batch_size=4, max_wait_seconds=0.5,
            clock=clock,
        )
        options.update(overrides)
        return MicroBatchScheduler(**options)

    def test_an_arrival_fires_no_trigger_of_its_own(self):
        clock = ManualClock()
        scheduler = self.make_scheduler(clock)
        scheduler.add(make_entry(0, clock))
        clock.advance(0.25)
        scheduler.add(make_entry(1, clock))
        scheduler.add(make_entry(2, clock, points=40))
        # Below size and before the oldest's deadline: everyone waits.
        assert scheduler.ready() == []
        assert scheduler.pending_count == 3
        clock.advance(0.25)
        # The deadline runs from a group's oldest member: the 400-point
        # group leaves whole, the younger 40-point group keeps waiting.
        (batch,) = scheduler.ready()
        assert batch.trigger == "deadline"
        assert [e.sequence for e in batch.entries] == [0, 1]
        assert scheduler.next_deadline() == 0.75

    def test_groups_leave_in_the_order_they_formed(self):
        clock = ManualClock()
        scheduler = self.make_scheduler(
            clock, max_batch_size=2, max_wait_seconds=0.0
        )
        scheduler.add(make_entry(0, clock, points=40))
        scheduler.add(make_entry(1, clock))
        scheduler.add(make_entry(2, clock))
        # Both groups are due; the one that formed first leaves first,
        # although the later one is full.
        batches = scheduler.ready()
        assert [b.trigger for b in batches] == ["deadline", "size"]
        assert [[e.sequence for e in b.entries] for b in batches] == [[0], [1, 2]]
        # A group that emptied re-forms at the back of the visit order.
        scheduler.add(make_entry(3, clock))
        scheduler.add(make_entry(4, clock, points=40))
        batches = scheduler.ready()
        assert [[e.sequence for e in b.entries] for b in batches] == [[3], [4]]

    def test_an_overfull_group_takes_its_oldest_and_the_rest_waits(self):
        clock = ManualClock()
        scheduler = self.make_scheduler(clock, max_batch_size=2)
        for sequence in range(3):
            scheduler.add(make_entry(sequence, clock))
            clock.advance(0.25)
        (batch,) = scheduler.ready()
        assert batch.trigger == "size"
        assert [e.sequence for e in batch.entries] == [0, 1]
        # The leftover's deadline runs from its own admission (0.5).
        assert scheduler.next_deadline() == 1.0
        assert scheduler.ready() == []
        clock.advance(0.25)
        (batch,) = scheduler.ready()
        assert batch.trigger == "deadline"
        assert [e.sequence for e in batch.entries] == [2]
        assert scheduler.pending_count == 0


def test_a_slot_frees_only_when_its_entry_starts():
    """Popped into the scheduler's groups, an entry keeps its slot; a
    refused submit takes no sequence number."""
    clock = ManualClock()
    held = MicroBatchScheduler(shape_key=by_points, max_batch_size=1, clock=clock)
    queue = AdmissionQueue(capacity=2, clock=clock, held=held)
    queue.submit(make_request(0))
    queue.submit(make_request(1))
    with pytest.raises(QueueFull):
        queue.submit(make_request(2))
    entry = queue.pop(timeout=0, sink=held.add)
    assert entry.sequence == 0 and held.pending_count == 1
    assert len(queue) == 1
    with pytest.raises(QueueFull):
        queue.submit(make_request(2))
    assert held.take().entries == [entry]  # a worker started it
    assert queue.submit(make_request(3)).sequence == 2
    assert [queue.pop(timeout=0).sequence for _ in range(2)] == [1, 2]


# ----------------------------------------------------------------------
# SubmitOptions: the one way to pass per-request knobs
# ----------------------------------------------------------------------
class TestSubmitOptions:
    def test_validation(self):
        for ttl in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="ttl"):
                SubmitOptions(ttl=ttl)
        with pytest.raises(TypeError):
            SubmitOptions(class_name="rt")

    def test_coerce_passes_options_through(self):
        options = SubmitOptions(ttl=1.0)
        assert SubmitOptions.coerce(options) is options
        assert SubmitOptions.coerce(None) == SubmitOptions()

    def test_legacy_kwargs_are_a_type_error(self):
        # Rejected at argument binding, so no server ever starts.
        submits = (
            AdmissionQueue(capacity=4).submit,
            FrameServer(session_factory=make_session, num_workers=1).submit,
        )
        legacy_kwargs = (
            {"block": True}, {"timeout": 2.0}, {"ttl": 1.0},
            {"class_name": "rt"}, {"priority": 10},
        )
        for submit in submits:
            for legacy in legacy_kwargs:
                with pytest.raises(TypeError):
                    submit(make_request(0), **legacy)
        with pytest.raises(TypeError):
            SubmitOptions.coerce(ttl=1.0)

    def test_mixing_options_and_legacy_kwargs_raises(self):
        with pytest.raises(TypeError):
            AdmissionQueue(capacity=4).submit(
                make_request(0), options=SubmitOptions(), ttl=1.0
            )


def test_serve_config_threads_admission_to_the_server():
    config = ServeConfig(frames=4)
    assert config.endpoint_options(4, None)["admission"] == "reject"
    config.execution.admission = "shed"
    options = config.endpoint_options(4, None)
    assert options["admission"] == "shed"
    assert "policy" not in options
