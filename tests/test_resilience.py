"""Tests for the serving resilience layer.

Covers the policy objects (``RetryPolicy`` backoff determinism,
``FaultPlan`` coordinate matching), request deadlines/TTL through the
admission queue, scheduler, and a live ``FrameServer`` (shed as typed
``DeadlineExceeded``, never a silent drop), crash retry with backoff on the
process pool (seeded worker kills and poisoned transport recover
bit-identically; exhausted retries surface ``RetriesExhausted`` with the
crash as cause), the shutdown-vs-in-flight-batch race, ``WorkerCrashed``
diagnostics, and the ``serve --chaos`` CLI gates.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.cli import main as cli_main
from repro.datasets.synthetic import sample_cad_shape
from repro.serving import (
    AdmissionQueue,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    FrameServer,
    ManualClock,
    MicroBatchScheduler,
    QueuedRequest,
    QueueFull,
    RetriesExhausted,
    RetryPolicy,
    SubmitOptions,
    WorkerCrashed,
    response_signature,
    signatures_equal,
)
from repro.session import FrameRequest, Session

from test_cluster import (
    CrashingSession,
    crashing_factory,
    make_request,
    make_session,
    reference_signatures,
    slow_factory,
    small_config,
)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_delay_seconds"):
            RetryPolicy(base_delay_seconds=-0.1)
        with pytest.raises(ValueError, match="max_delay_seconds"):
            RetryPolicy(base_delay_seconds=1.0, max_delay_seconds=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy().delay(0)

    def test_exhausted_counts_dispatches(self):
        # max_attempts=1 is the pre-retry behaviour: the first dispatch is
        # also the last.
        assert RetryPolicy(max_attempts=1).exhausted(1)
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(1)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_delay_doubles_and_caps_without_jitter(self):
        policy = RetryPolicy(
            base_delay_seconds=0.1, max_delay_seconds=0.35, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped, not 0.4
        assert policy.delay(10) == pytest.approx(0.35)

    def test_jitter_is_seeded_and_bounded(self):
        a = RetryPolicy(seed=7, base_delay_seconds=0.1, jitter=0.25)
        b = RetryPolicy(seed=7, base_delay_seconds=0.1, jitter=0.25)
        delays_a = [a.delay(n) for n in (1, 2, 3, 1, 2)]
        delays_b = [b.delay(n) for n in (1, 2, 3, 1, 2)]
        # Same seed, same call order -> the exact same schedule.
        assert delays_a == delays_b
        for n, delay in zip((1, 2, 3, 1, 2), delays_a):
            base = min(1.0, 0.1 * 2 ** (n - 1))
            assert base <= delay <= base * 1.25
        different = RetryPolicy(seed=8, base_delay_seconds=0.1, jitter=0.25)
        assert [different.delay(n) for n in (1, 2, 3, 1, 2)] != delays_a


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="explode", worker_index=0, after_batches=0)
        with pytest.raises(ValueError, match="worker_index"):
            FaultSpec(kind="kill", worker_index=-1, after_batches=0)
        with pytest.raises(ValueError, match="after_batches"):
            FaultSpec(kind="kill", worker_index=0, after_batches=-1)
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="slow", worker_index=0, after_batches=0, times=0)
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultSpec(
                kind="slow", worker_index=0, after_batches=0,
                delay_seconds=-1.0,
            )

    def test_kill_matches_one_exact_ordinal_in_one_generation(self):
        plan = FaultPlan(seed=1).kill_worker(0, after_batches=2)
        assert plan.kill_spec(0, 0, 2) is not None
        assert plan.kill_spec(0, 0, 1) is None
        assert plan.kill_spec(0, 0, 3) is None   # fires once, not "from then on"
        assert plan.kill_spec(1, 0, 2) is None   # other worker
        assert plan.kill_spec(0, 1, 2) is None   # respawn does not re-die

    def test_slow_matches_a_range_and_sums_overlaps(self):
        plan = (
            FaultPlan()
            .slow_worker(1, delay_seconds=0.5, after_batches=2, times=3)
            .slow_worker(1, delay_seconds=0.25, after_batches=3, times=1)
        )
        assert plan.slow_delay(1, 0, 1) == 0.0
        assert plan.slow_delay(1, 0, 2) == 0.5
        assert plan.slow_delay(1, 0, 3) == 0.75  # overlapping specs add up
        assert plan.slow_delay(1, 0, 4) == 0.5
        assert plan.slow_delay(1, 0, 5) == 0.0
        assert plan.slow_delay(0, 0, 3) == 0.0

    def test_on_batch_start_sleeps_then_exits(self):
        plan = (
            FaultPlan()
            .slow_worker(0, delay_seconds=0.3, after_batches=1, times=1)
            .kill_worker(0, after_batches=1, exit_code=77)
        )
        calls = []
        plan.on_batch_start(
            0, 0, 0, sleep=lambda s: calls.append(("sleep", s)),
            exit=lambda c: calls.append(("exit", c)),
        )
        assert calls == []  # ordinal 0: nothing scripted
        plan.on_batch_start(
            0, 0, 1, sleep=lambda s: calls.append(("sleep", s)),
            exit=lambda c: calls.append(("exit", c)),
        )
        assert calls == [("sleep", 0.3), ("exit", 77)]

    def test_describe_names_the_scenario(self):
        plan = FaultPlan(seed=42).kill_worker(0, after_batches=2)
        description = plan.describe()
        assert description["seed"] == 42
        assert description["specs"][0]["kind"] == "kill"
        assert description["specs"][0]["after_batches"] == 2


# ----------------------------------------------------------------------
# Deadlines / TTL
# ----------------------------------------------------------------------
def _entry_request(seed: int) -> FrameRequest:
    return FrameRequest(
        cloud=sample_cad_shape(50, shape="box", seed=seed),
        frame_id=f"ttl{seed:02d}",
    )


class TestDeadlines:
    def test_ttl_must_be_positive(self):
        queue = AdmissionQueue(capacity=2)
        with pytest.raises(ValueError, match="ttl"):
            queue.submit(_entry_request(0), options=SubmitOptions(ttl=0))
        with pytest.raises(ValueError, match="ttl"):
            queue.submit(_entry_request(0), options=SubmitOptions(ttl=-1.0))
        with pytest.raises(ValueError, match="ttl"):
            queue.submit(
                _entry_request(0), options=SubmitOptions(ttl=float("nan"))
            )

    def test_full_queue_sheds_expired_before_queue_full(self):
        clock = ManualClock()
        shed = []
        queue = AdmissionQueue(capacity=2, clock=clock, on_shed=shed.append)
        first = queue.submit(_entry_request(0), options=SubmitOptions(ttl=1.0))
        queue.submit(_entry_request(1), options=SubmitOptions(ttl=10.0))
        # Full with nothing expired: still QueueFull.
        with pytest.raises(QueueFull):
            queue.submit(_entry_request(2))
        assert shed == []
        clock.advance(2.0)  # first's deadline (1.0) has passed
        entry = queue.submit(_entry_request(3))
        assert shed == [first]
        assert entry.deadline is None
        # FIFO order preserved for the survivors.
        assert queue.pop(timeout=0).request.frame_id == "ttl01"
        assert queue.pop(timeout=0).request.frame_id == "ttl03"

    def test_scheduler_sheds_expired_before_dispatch(self):
        clock = ManualClock()
        scheduler = MicroBatchScheduler(
            shape_key=lambda request: ("k", 1, 0),
            max_batch_size=8,
            max_wait_seconds=100.0,
            clock=clock,
        )
        entries = [
            QueuedRequest(
                request=_entry_request(i),
                future=Future(),
                sequence=i,
                enqueued_at=clock(),
                deadline=deadline,
            )
            for i, deadline in enumerate([5.0, None, 1.0])
        ]
        for entry in entries:
            scheduler.add(entry)
        assert scheduler.next_expiry() == 1.0
        clock.advance(2.0)
        shed = scheduler.shed_expired()
        assert shed == [entries[2]]
        assert scheduler.next_expiry() == 5.0
        clock.advance(10.0)
        assert scheduler.shed_expired() == [entries[0]]
        # The no-deadline entry survives any amount of waiting.
        assert scheduler.pending_count == 1
        assert scheduler.next_expiry() is None

    def test_server_resolves_expired_requests_with_deadline_exceeded(self):
        # One worker is wedged inside a batch, so the TTL'd request parks
        # behind running work under a max_wait far beyond its TTL; the
        # other worker's hand-off must wake on next_expiry and shed it as a
        # typed error.
        release = threading.Event()
        entered = threading.Semaphore(0)

        class BlockedSession(Session):
            def run_batch(self, frames, batch_size=None):
                entered.release()
                release.wait(30.0)
                return super().run_batch(frames, batch_size)

        server = FrameServer(
            lambda: BlockedSession(
                config=small_config(), task="semantic_segmentation",
                sampler="random", response_cache_size=0,
            ),
            num_workers=2,
            max_batch_size=8,
            max_wait_seconds=30.0,
            name="ttl",
        ).start()
        try:
            running = server.submit(make_request(1))
            assert entered.acquire(timeout=10.0)
            doomed = server.submit(make_request(0), options=SubmitOptions(ttl=0.05))
            with pytest.raises(DeadlineExceeded, match="missed its deadline"):
                doomed.result(timeout=10)
            snapshot = server.metrics.snapshot()
        finally:
            release.set()
        assert running.result(timeout=30).result.frame_id == "req0001"
        assert snapshot["requests"]["shed"] == 1
        assert snapshot["requests"]["failed"] == 0
        assert snapshot["requests"]["in_flight"] == 1
        assert snapshot["resilience"]["deadline_sheds"] == 1
        final = server.shutdown()
        assert final["requests"]["shed"] == 1
        assert final["requests"]["in_flight"] == 0

    def test_unexpired_ttl_requests_are_served_normally(self):
        with FrameServer(
            make_session,
            num_workers=1,
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="ttl-ok",
        ) as server:
            response = server.submit(
                make_request(0), options=SubmitOptions(ttl=60.0)
            ).result(timeout=60)
            assert response.result.frame_id == "req0000"
        assert server.shutdown()["requests"]["shed"] == 0


# ----------------------------------------------------------------------
# Crash retry with backoff (process pool)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_seeded_worker_kill_recovers_bit_identically(self):
        requests = [make_request(i) for i in range(8)]
        expected = reference_signatures(requests)
        server = FrameServer(
            make_session,
            num_workers=2,
            execution="process",
            max_batch_size=2,
            max_wait_seconds=0.002,
            name="chaos-kill",
            faults=FaultPlan(seed=0).kill_worker(0, after_batches=1),
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.01, seed=0
            ),
        ).start()
        futures = [server.submit(request) for request in requests]
        responses = [future.result(timeout=120) for future in futures]
        snapshot = server.shutdown()
        # Zero lost futures: every admitted request resolved to a response
        # bit-identical to the sequential reference run.
        assert snapshot["requests"]["completed"] == len(requests)
        assert snapshot["requests"]["failed"] == 0
        assert snapshot["requests"]["in_flight"] == 0
        assert snapshot["resilience"]["retries"] >= 1
        assert server.pool.respawns >= 1
        for response, signature in zip(responses, expected):
            assert signatures_equal(response_signature(response), signature)

    def test_pool_is_idle_again_after_a_kill_fault_retry_completes(self):
        server = FrameServer(
            make_session,
            num_workers=1,
            execution="process",
            name="idle-kill",
            faults=FaultPlan(seed=0).kill_worker(0, after_batches=0),
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.01, seed=0
            ),
        ).start()
        try:
            assert server.pool.idle()
            response = server.submit(make_request(0)).result(timeout=120)
            assert response.result.frame_id == "req0000"
            assert server.metrics.snapshot()["resilience"]["retries"] == 1
            assert server.pool.respawns == 1
            assert server.pool.idle()
        finally:
            server.shutdown()

    def test_pool_is_idle_again_after_survivors_expire_in_backoff(self):
        server = FrameServer(
            make_session,
            num_workers=1,
            execution="process",
            name="idle-expire",
            # Batch 0 warms the child; batch 1 dies with it.
            faults=FaultPlan(seed=0).kill_worker(0, after_batches=1),
            retry_policy=RetryPolicy(
                base_delay_seconds=2.0, max_delay_seconds=2.0, jitter=0.0
            ),
        ).start()
        try:
            server.submit(make_request(0)).result(timeout=120)
            doomed = server.submit(
                make_request(1), options=SubmitOptions(ttl=1.0)
            )
            deadline = time.monotonic() + 1.0
            while server.metrics.snapshot()["resilience"]["retries"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.05)
            assert not server.pool.idle()  # the retry waits out its backoff
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=120)
            snapshot = server.metrics.snapshot()
            # It survived the crash, then expired while backing off.
            assert snapshot["resilience"]["retries"] == 1
            assert snapshot["requests"]["shed"] == 1
            assert server.pool.idle()
        finally:
            server.shutdown()

    def test_poisoned_transport_is_detected_and_retried(self):
        requests = [make_request(i) for i in range(2)]
        expected = reference_signatures(requests)
        server = FrameServer(
            make_session,
            num_workers=1,
            execution="process",
            max_batch_size=2,
            max_wait_seconds=0.002,
            name="chaos-poison",
            faults=FaultPlan(seed=0).poison_response(0, after_batches=0),
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.01, seed=0
            ),
        ).start()
        futures = [server.submit(request) for request in requests]
        responses = [future.result(timeout=120) for future in futures]
        snapshot = server.shutdown()
        # The corrupted manifest surfaced as TransportError in the parent
        # (never silently decoded) and the batch was recomputed.
        assert snapshot["requests"]["failed"] == 0
        assert snapshot["resilience"]["retries"] >= 1
        for response, signature in zip(responses, expected):
            assert signatures_equal(response_signature(response), signature)

    def test_retries_exhausted_is_typed_with_the_crash_as_cause(self):
        server = FrameServer(
            crashing_factory,
            num_workers=1,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="exhaust",
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_seconds=0.01, seed=0
            ),
        ).start()
        poison = server.submit(
            FrameRequest(
                cloud=sample_cad_shape(400, shape="box", seed=4),
                frame_id="poison",
            )
        )
        with pytest.raises(RetriesExhausted, match="gave up after 2 attempts"):
            poison.result(timeout=120)
        try:
            poison.result(timeout=0)
        except RetriesExhausted as exc:
            assert isinstance(exc.__cause__, WorkerCrashed)
        # Every generation crashed on the same poison frame.
        assert server.pool.respawns >= 1
        snapshot = server.shutdown()
        assert snapshot["requests"]["failed"] == 1
        assert snapshot["requests"]["in_flight"] == 0
        assert snapshot["resilience"]["retries"] >= 1

    def test_worker_crashed_message_names_the_casualty(self):
        server = FrameServer(
            crashing_factory,
            num_workers=1,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="diag",
            retry_policy=RetryPolicy(max_attempts=1),
        ).start()
        try:
            poison = server.submit(
                FrameRequest(
                    cloud=sample_cad_shape(400, shape="box", seed=6),
                    frame_id="poison",
                )
            )
            with pytest.raises(WorkerCrashed) as excinfo:
                poison.result(timeout=120)
            message = str(excinfo.value)
            # Operators triage from this one line: worker identity, pid,
            # generation, exit code, and which batches died with it.
            assert "diag-proc-0" in message
            assert "pid" in message
            assert "generation 0" in message
            assert "exit code 42" in message
            assert "batch(es)" in message and "[" in message
        finally:
            server.shutdown()

    def test_shutdown_racing_an_in_flight_process_batch_drains_it(self):
        server = FrameServer(
            slow_factory,
            num_workers=1,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="race",
        ).start()
        future = server.submit(make_request(0))
        # Don't wait for the result: shut down while the worker is still
        # executing the batch.  Drain must complete it, not lose it.
        snapshot = server.shutdown()
        assert future.done()
        response = future.result(timeout=0)
        assert response.result.frame_id == "req0000"
        assert snapshot["requests"]["completed"] == 1
        assert snapshot["requests"]["failed"] == 0
        assert snapshot["requests"]["in_flight"] == 0


# ----------------------------------------------------------------------
# serve --chaos CLI
# ----------------------------------------------------------------------
class TestChaosCli:
    def test_chaos_requires_process_execution(self, capsys):
        code = cli_main(["serve", "--chaos", "--frames", "1"])
        assert code == 2
        assert "requires" in capsys.readouterr().err

    def test_request_timeout_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--request-timeout", "0"])
        assert excinfo.value.code == 2
        assert "positive number" in capsys.readouterr().err

    def test_chaos_soak_recovers_and_reports(self, tmp_path, capsys):
        metrics_out = tmp_path / "chaos.json"
        code = cli_main(
            [
                "serve",
                "--frames", "12",
                "--workers", "2",
                "--execution", "process",
                "--chaos",
                "--chaos-kill-after", "1",
                "--max-batch", "2",
                "--rate-hz", "0",
                "--request-timeout", "120",
                "--metrics-out", str(metrics_out),
            ]
        )
        assert code == 0, capsys.readouterr().out
        import json

        report = json.loads(metrics_out.read_text())
        assert report["checks"]["passed"]
        assert report["serve"]["verified_bit_identical"]
        assert report["serve"]["chaos"]["specs"][0]["kind"] == "kill"
        assert report["metrics"]["requests"]["failed"] == 0
        assert report["metrics"]["requests"]["completed"] == 12
        assert report["metrics"]["resilience"]["retries"] >= 1
