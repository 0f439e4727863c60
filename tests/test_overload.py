"""Overload through a live ``FrameServer`` with real triggers.

Arrivals outrun one worker made slow with ``FaultPlan.slow_worker``, so a
backlog forms while the 5 ms deadline trigger is live -- nothing is parked
behind a long ``max_wait_seconds``.  The backlog has to sit where the
server's own rules reach it: ``queue_capacity`` refuses, TTLs expire,
``admission="shed"`` sheds, and same-shape groups fill to their size
limit.  Also pins the shape that makes this so:
workers pull (no scheduler thread, no pool-side queue) and the process
pool stages at most a constant number of batches per child.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datasets.synthetic import sample_cad_shape
from repro.serving import (
    DeadlineExceeded,
    FaultPlan,
    FrameServer,
    LoadShed,
    QueueFull,
    SubmitOptions,
    response_signature,
    signatures_equal,
)
from repro.serving.cluster.pool import _STAGED_PER_CHILD, WorkerPool
from repro.session import FrameRequest

from test_cluster import make_session

EXECUTIONS = ("thread", "process")

#: One submit every 2 ms (500 Hz) against a worker that takes >= 20 ms per
#: batch of <= 4 (under 200 frames/s): a group needs 8 ms to fill, longer
#: than the 5 ms deadline, so only a backlog can form size-triggered batches.
GAP_SECONDS = 0.002
SLOW_SECONDS = 0.02
FRAMES = 100


def make_requests(count: int = FRAMES, mixed: bool = False):
    return [
        FrameRequest(
            cloud=sample_cad_shape(
                40 if mixed and i % 3 == 0 else 400,
                shape="box", non_uniformity=0.2, seed=i % 8,
            ),
            frame_id=f"req{i:04d}",
        )
        for i in range(count)
    ]


def slow_server(execution: str = "thread", **overrides) -> FrameServer:
    options = dict(
        num_workers=1,
        max_batch_size=4,
        max_wait_seconds=0.005,
        queue_capacity=4096,
        execution=execution,
        faults=FaultPlan().slow_worker(0, delay_seconds=SLOW_SECONDS),
    )
    options.update(overrides)
    return FrameServer(make_session, **options)


def drive(endpoint, requests, options=None, observe=None):
    """Open loop from this thread; ``None`` marks a submit refused ``QueueFull``."""
    futures = []
    start = time.monotonic()
    for i, request in enumerate(requests):
        time.sleep(max(0.0, start + i * GAP_SECONDS - time.monotonic()))
        try:
            futures.append(
                endpoint.submit(
                    request, options=options(i) if callable(options) else options
                )
            )
        except QueueFull:
            futures.append(None)
        if observe is not None:
            observe()
    return futures


def outcomes(futures):
    """Outcome name -> count over the admitted futures (all must resolve)."""
    counts = {}
    for future in futures:
        if future is None:
            continue
        error = future.exception(timeout=60.0)
        name = "served" if error is None else type(error).__name__
        counts[name] = counts.get(name, 0) + 1
    return counts


def first_record_per_batch(server):
    batches = {}
    for record in server.metrics.records:
        batches.setdefault(record.batch_id, record)
    return list(batches.values())


# ----------------------------------------------------------------------
# The bound, the deadline and the shed reach the backlog that exists
# ----------------------------------------------------------------------
class TestOverload:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_queue_capacity_bounds_everything_not_yet_started(self, execution):
        server = slow_server(execution, queue_capacity=4)
        depths = []
        with server:
            futures = drive(
                server, make_requests(),
                observe=lambda: depths.append(
                    len(server.admission) + server.scheduler.pending_count
                ),
            )
            counts = outcomes(futures)
            snapshot = server.shutdown()
        refused = futures.count(None)
        assert refused > 0
        assert max(depths) <= 4
        assert counts == {"served": FRAMES - refused}
        assert snapshot["requests"]["rejected"] == refused
        assert snapshot["requests"]["in_flight"] == 0

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_expired_requests_are_never_started(self, execution):
        ttl = 0.05
        server = slow_server(execution)
        with server:
            counts = outcomes(
                drive(server, make_requests(), options=SubmitOptions(ttl=ttl))
            )
            snapshot = server.shutdown()
        assert counts.get(DeadlineExceeded.__name__, 0) >= 1
        assert counts.get("served", 0) >= 1
        assert sum(counts.values()) == FRAMES
        served = [r for r in server.metrics.records if r.ok]
        assert len(served) == counts["served"]
        assert max(r.queue_wait for r in served) <= ttl
        assert snapshot["requests"]["shed"] == counts[DeadlineExceeded.__name__]

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_shed_admission_sheds_instead_of_queueing(self, execution):
        server = slow_server(execution, admission="shed", queue_capacity=8)
        depths = []
        with server:
            futures = drive(
                server, make_requests(),
                observe=lambda: depths.append(
                    len(server.admission) + server.scheduler.pending_count
                ),
            )
            counts = outcomes(futures)
            snapshot = server.shutdown()
        requests = snapshot["requests"]
        assert None not in futures  # QueueFull is never raised under shed
        assert max(depths) <= 8
        assert requests["load_shed"] > 0
        assert requests["load_shed"] == counts[LoadShed.__name__]
        assert requests["completed"] + requests["load_shed"] == FRAMES
        assert requests["submitted"] == FRAMES
        assert requests["rejected"] == 0

    def test_no_arrival_overtakes_the_backlog(self):
        server = slow_server()
        with server:
            assert outcomes(drive(server, make_requests(60))) == {"served": 60}
        records = sorted(server.metrics.records, key=lambda r: r.sequence)
        # One shape, one class: requests start in admission order, each
        # batch by one of the waiting room's own triggers.
        dispatched = [r.dispatched_at for r in records]
        assert dispatched == sorted(dispatched)
        assert {r.trigger for r in records} <= {"size", "deadline", "idle"}

    def test_backlog_fills_batches_to_the_size_limit(self):
        server = slow_server()
        with server:
            assert outcomes(drive(server, make_requests())) == {"served": FRAMES}
        batches = first_record_per_batch(server)
        by_size = [r for r in batches if r.trigger == "size"]
        assert len(by_size) / len(batches) > 0.5
        assert all(r.batch_size == 4 for r in by_size)


# ----------------------------------------------------------------------
# The shape that makes it so
# ----------------------------------------------------------------------
class TestPullStructure:
    def test_thread_server_runs_only_its_worker_threads(self):
        server = FrameServer(make_session, num_workers=2, name="pull").start()
        try:
            owned = sorted(
                t.name for t in threading.enumerate() if t.name.startswith("pull")
            )
            assert owned == ["pull-worker-0", "pull-worker-1"]
            assert not any(
                t.name.endswith("-scheduler") for t in threading.enumerate()
            )
        finally:
            server.shutdown()
        assert not any(t.name.startswith("pull") for t in threading.enumerate())

    def test_pool_contract_has_no_push_side(self):
        assert not hasattr(WorkerPool, "dispatch")
        assert not hasattr(WorkerPool, "end_of_stream")

    def test_process_pool_stages_a_constant_number_of_batches_per_child(self):
        server = slow_server("process", num_workers=2)
        in_flight = []
        with server:
            futures = drive(
                server, make_requests(),
                observe=lambda: in_flight.append(len(server.pool._in_flight)),
            )
            assert outcomes(futures) == {"served": FRAMES}
        assert 0 < max(in_flight) <= _STAGED_PER_CHILD * 2

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_overload_keeps_order_and_bit_identity(self, execution):
        requests = make_requests(48, mixed=True)
        reference = make_session().run_batch(requests, batch_size=1)
        server = FrameServer(
            make_session,
            num_workers=1,
            execution=execution,
            max_batch_size=4,
            max_wait_seconds=0.005,
            queue_capacity=4096,
            faults=FaultPlan().slow_worker(0, delay_seconds=SLOW_SECONDS),
        )
        with server:
            futures = drive(server, requests)
            responses = [future.result(timeout=60.0) for future in futures]
            snapshot = server.shutdown()
        for response, expected in zip(responses, reference.responses):
            assert signatures_equal(
                response_signature(response), response_signature(expected)
            )
        assert snapshot["requests"]["completed"] == len(requests)
        assert snapshot["futures_monotonic"] is True
