"""Tests for the asynchronous serving subsystem.

Covers the four serving pieces in isolation (admission queue backpressure,
scheduler shape-grouping and deadline/idle triggers under a manual clock,
deterministic metrics aggregation under seeded timestamps) and the
integrated :class:`FrameServer` contract: N-worker results bit-identical to
a sequential ``run_batch``, drain-on-shutdown completing every admitted
request, an idle server starting a lone request at once, and monotonic
future resolution.  Also exercises the
``batch_size`` guard on ``Session.run_batch``.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.datasets.synthetic import sample_cad_shape
from repro.serving import (
    AdmissionQueue,
    FrameServer,
    ManualClock,
    MicroBatchScheduler,
    QueueClosed,
    QueueFull,
    RequestRecord,
    ServingMetrics,
    response_signature,
    signatures_equal,
)
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


def make_session(**overrides) -> Session:
    options = dict(
        config=small_config(),
        task="semantic_segmentation",
        sampler="random",
        response_cache_size=0,
    )
    options.update(overrides)
    return Session(**options)


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_fifo_with_sequence_numbers_and_timestamps(self):
        clock = ManualClock()
        queue = AdmissionQueue(capacity=4, clock=clock)
        first = queue.submit(make_request(0))
        clock.advance(0.25)
        second = queue.submit(make_request(1))
        assert (first.sequence, second.sequence) == (0, 1)
        assert first.enqueued_at == 0.0
        assert second.enqueued_at == 0.25
        assert queue.pop(timeout=0) is first
        assert queue.pop(timeout=0) is second
        assert queue.pop(timeout=0) is None

    def test_backpressure_rejects_when_full(self):
        queue = AdmissionQueue(capacity=2)
        queue.submit(make_request(0))
        queue.submit(make_request(1))
        with pytest.raises(QueueFull):
            queue.submit(make_request(2))
        # Draining a slot re-opens admission.
        assert queue.pop(timeout=0) is not None
        entry = queue.submit(make_request(3))
        assert entry.sequence == 2

    def test_close_stops_admission_but_drains_entries(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(make_request(0))
        queue.close()
        with pytest.raises(QueueClosed):
            queue.submit(make_request(1))
        assert not queue.is_drained()
        assert queue.pop(timeout=0) is not None
        assert queue.pop(timeout=0) is None
        assert queue.is_drained()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


# ----------------------------------------------------------------------
# Micro-batch scheduler (manual clock, no threads)
# ----------------------------------------------------------------------
class TestMicroBatchScheduler:
    def setup_scheduler(self, clock, **overrides):
        session = make_session()
        options = dict(
            shape_key=lambda request: session.shape_key(request.cloud),
            max_batch_size=2,
            max_wait_seconds=0.005,
            clock=clock,
        )
        options.update(overrides)
        queue = AdmissionQueue(capacity=64, clock=clock)
        return MicroBatchScheduler(**options), queue

    def test_groups_by_shape_and_fires_size_trigger(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(clock)
        # 400-point frames down-sample to 64; 40-point frames stay at 40 --
        # two distinct shape keys.
        scheduler.add(queue.submit(make_request(0, points=400)))
        scheduler.add(queue.submit(make_request(1, points=40)))
        assert scheduler.ready(now=0.0) == []
        assert scheduler.pending_count == 2
        scheduler.add(queue.submit(make_request(2, points=400)))
        batches = scheduler.ready(now=0.0)
        assert len(batches) == 1
        assert batches[0].trigger == "size"
        assert batches[0].key[1] == 64
        assert [e.sequence for e in batches[0].entries] == [0, 2]
        # The lone 40-point request is still waiting for its deadline.
        assert scheduler.pending_count == 1

    def test_deadline_trigger_fires_for_lonely_shapes(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(clock)
        scheduler.add(queue.submit(make_request(0, points=40)))
        assert scheduler.next_deadline() == pytest.approx(0.005)
        assert scheduler.ready(now=0.004) == []
        clock.advance(0.005)
        batches = scheduler.ready()
        assert len(batches) == 1
        assert batches[0].trigger == "deadline"
        assert len(batches[0].entries) == 1
        assert scheduler.pending_count == 0
        assert scheduler.next_deadline() is None

    def test_size_trigger_beats_deadline(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(clock, max_batch_size=3)
        for i in range(3):
            scheduler.add(queue.submit(make_request(i)))
        batches = scheduler.ready(now=0.0)  # deadline has NOT passed yet
        assert [b.trigger for b in batches] == ["size"]

    def test_rows_budget_caps_batch_size(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(
            clock, max_batch_size=8, batch_rows_budget=128
        )
        # sampled size 64 -> 128 // 64 = 2 frames per batch despite max 8.
        assert scheduler.effective_batch_size(("t", 64, 0)) == 2
        for i in range(4):
            scheduler.add(queue.submit(make_request(i)))
        batches = scheduler.ready(now=0.0)
        assert [len(b.entries) for b in batches] == [2, 2]

    def test_drain_flushes_everything_in_capped_chunks(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(clock, max_batch_size=2)
        for i in range(3):
            scheduler.add(queue.submit(make_request(i, points=400)))
        scheduler.add(queue.submit(make_request(3, points=40)))
        # Nothing is size-ready for the 40-point shape and one 400-point
        # straggler remains after the first pair; drain takes them all.
        ready = scheduler.ready(now=0.0)
        assert [len(b.entries) for b in ready] == [2]
        drained = scheduler.drain()
        assert sorted(len(b.entries) for b in drained) == [1, 1]
        assert all(b.trigger == "drain" for b in drained)
        assert scheduler.pending_count == 0

    def test_batch_members_stay_in_admission_order(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(clock, max_batch_size=4)
        for i in range(4):
            scheduler.add(queue.submit(make_request(i)))
        (batch,) = scheduler.ready(now=0.0)
        assert [e.sequence for e in batch.entries] == [0, 1, 2, 3]

    def test_idle_starts_a_lonely_group_at_once(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(clock)
        scheduler.add(queue.submit(make_request(0, points=40)))
        # Behind running work the group still waits for max_wait ...
        assert scheduler.take(now=0.0) is None
        assert scheduler.take(now=0.004, idle=False) is None
        # ... but an idle pool starts it now, companions or not.
        batch = scheduler.take(now=0.0, idle=True)
        assert batch.trigger == "idle"
        assert [e.sequence for e in batch.entries] == [0]
        assert batch.formed_at == 0.0
        assert scheduler.pending_count == 0
        assert scheduler.take(now=0.0, idle=True) is None

    def test_drain_deadline_and_size_take_precedence_over_idle(self):
        clock = ManualClock()
        scheduler, queue = self.setup_scheduler(clock)
        # A lonely 40-point group first in visit order, then a full group.
        scheduler.add(queue.submit(make_request(0, points=40)))
        scheduler.add(queue.submit(make_request(1)))
        scheduler.add(queue.submit(make_request(2)))
        batch = scheduler.take(now=0.0, idle=True)
        assert (batch.trigger, batch.key[1]) == ("size", 64)
        # A group past its deadline keeps the deadline label when idle.
        scheduler.add(queue.submit(make_request(3)))
        batch = scheduler.take(now=0.005, idle=True)
        assert (batch.trigger, batch.key[1]) == ("deadline", 40)
        # Flush labels every group drain, idle or not.
        scheduler.add(queue.submit(make_request(4, points=40)))
        drained = [
            scheduler.take(now=0.0, flush=True, idle=True) for _ in range(2)
        ]
        assert [b.trigger for b in drained] == ["drain", "drain"]
        assert scheduler.pending_count == 0

    def test_parameter_validation(self):
        session = make_session()
        key = lambda request: session.shape_key(request.cloud)  # noqa: E731
        with pytest.raises(ValueError):
            MicroBatchScheduler(key, max_batch_size=0)
        for max_wait in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_wait_seconds"):
                MicroBatchScheduler(key, max_wait_seconds=max_wait)
        with pytest.raises(ValueError):
            MicroBatchScheduler(key, batch_rows_budget=0)


# ----------------------------------------------------------------------
# Metrics (deterministic under a seeded clock)
# ----------------------------------------------------------------------
def synthetic_records(seed: int, count: int = 40):
    """Records with seeded timestamps, as a seeded-clock run would leave."""
    rng = np.random.default_rng(seed)
    records = []
    now = 0.0
    for i in range(count):
        now += float(rng.exponential(0.01))
        queue_wait = float(rng.uniform(0.001, 0.02))
        service = float(rng.uniform(0.002, 0.01))
        records.append(
            RequestRecord(
                sequence=i,
                frame_id=f"req{i:04d}",
                enqueued_at=now,
                dispatched_at=now + queue_wait,
                completed_at=now + queue_wait + service,
                completion_index=i,
                batch_id=i // 4,
                batch_size=4,
                trigger="size" if i % 4 else "deadline",
                worker="w0",
            )
        )
    return records


class TestServingMetrics:
    def test_snapshot_is_deterministic_for_seeded_records(self):
        snapshots = []
        for _ in range(2):
            metrics = ServingMetrics()
            for record in synthetic_records(seed=7):
                metrics.record_submitted()
                metrics.record(record)
            snapshots.append(metrics.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_percentiles_match_numpy_on_the_recorded_waits(self):
        records = synthetic_records(seed=3)
        metrics = ServingMetrics()
        for record in records:
            metrics.record_submitted()
            metrics.record(record)
        snapshot = metrics.snapshot()
        waits_ms = np.array([r.queue_wait for r in records]) * 1e3
        for q in (50, 95, 99):
            assert snapshot["queue_wait_ms"][f"p{q}"] == pytest.approx(
                float(np.percentile(waits_ms, q))
            )
        latencies_ms = np.array([r.latency for r in records]) * 1e3
        assert snapshot["latency_ms"]["max"] == pytest.approx(
            float(latencies_ms.max())
        )
        assert snapshot["requests"] == {
            "submitted": 40, "rejected": 0, "completed": 40,
            "failed": 0, "dropped": 0, "shed": 0, "load_shed": 0,
            "in_flight": 0,
        }
        assert snapshot["resilience"] == {
            "retries": 0, "deadline_sheds": 0, "load_sheds": 0,
        }
        assert snapshot["batches"]["count"] == 10
        assert snapshot["batches"]["mean_occupancy"] == 4.0
        assert snapshot["batches"]["triggers"] == {"deadline": 10}
        assert snapshot["futures_monotonic"] is True

    def test_in_flight_requests_are_not_dropped(self):
        metrics = ServingMetrics()
        metrics.record_submitted()
        metrics.record_submitted()
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["in_flight"] == 2
        assert snapshot["requests"]["dropped"] == 0
        metrics.record_cancelled()
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["in_flight"] == 1
        assert snapshot["requests"]["dropped"] == 1

    def test_empty_snapshot(self):
        snapshot = ServingMetrics().snapshot()
        assert snapshot["requests"]["submitted"] == 0
        assert snapshot["latency_ms"]["p99"] == 0.0
        assert snapshot["throughput_rps"] == 0.0
        assert snapshot["futures_monotonic"] is True

    @staticmethod
    def record_served(metrics, sequence, latency, ok=True):
        metrics.record_submitted()
        metrics.record(
            RequestRecord(
                sequence=sequence,
                frame_id=f"req{sequence:04d}",
                enqueued_at=0.0,
                dispatched_at=latency / 2,
                completed_at=latency,
                completion_index=metrics.next_completion_index(),
                batch_id=sequence,
                batch_size=1,
                trigger="deadline",
                ok=ok,
            )
        )

    def test_failed_and_shed_requests_stay_out_of_the_latency_percentiles(self):
        metrics = ServingMetrics()
        for sequence, latency in enumerate([0.010, 0.020, 0.030, 0.500]):
            self.record_served(metrics, sequence, latency)
        self.record_served(metrics, 4, 0.100, ok=False)
        for _ in range(2):
            metrics.record_submitted()
            metrics.record_load_shed()
        metrics.record_submitted()
        metrics.record_shed()
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == {
            "submitted": 8, "rejected": 0, "completed": 4,
            "failed": 1, "dropped": 0, "shed": 1, "load_shed": 2,
            "in_flight": 0,
        }
        latency = snapshot["latency_ms"]
        assert latency["p50"] == pytest.approx(25.0)
        assert latency["mean"] == pytest.approx(140.0)
        assert latency["max"] == pytest.approx(500.0)

    def test_typed_outcomes_alone_leave_the_latency_report_empty(self):
        metrics = ServingMetrics()
        metrics.record_submitted()
        metrics.record_load_shed()
        metrics.record_submitted()
        metrics.record_shed()
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["completed"] == 0
        assert snapshot["requests"]["in_flight"] == 0
        assert snapshot["latency_ms"]["p99"] == 0.0
        assert snapshot["throughput_rps"] == 0.0
        assert snapshot["batches"]["count"] == 0
        assert snapshot["resilience"] == {
            "retries": 0, "deadline_sheds": 1, "load_sheds": 1,
        }

    def test_non_monotonic_futures_detected(self):
        metrics = ServingMetrics()
        a, b = synthetic_records(seed=1, count=2)
        # Same batch, but the later sequence resolved first.
        metrics.record(
            RequestRecord(**{**a.__dict__, "batch_id": 9, "completion_index": 1})
        )
        metrics.record(
            RequestRecord(**{**b.__dict__, "batch_id": 9, "completion_index": 0})
        )
        assert metrics.futures_monotonic() is False


# ----------------------------------------------------------------------
# FrameServer end to end
# ----------------------------------------------------------------------
class TestFrameServer:
    def sequential_signatures(self, requests):
        reference = make_session().run_batch(requests, batch_size=1)
        return [response_signature(r) for r in reference.responses]

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_n_worker_results_bit_identical_to_sequential(self, num_workers):
        # Mixed shapes: 400-point frames (down-sampled to 64) and raw
        # 40-point frames form different micro-batch keys.
        requests = [
            make_request(i, points=400 if i % 3 else 40) for i in range(10)
        ]
        expected = self.sequential_signatures(requests)
        server = FrameServer(
            session_factory=make_session,
            num_workers=num_workers,
            max_batch_size=4,
            max_wait_seconds=0.002,
            queue_capacity=len(requests),
        )
        with server:
            futures = [server.submit(request) for request in requests]
            responses = [future.result(timeout=60.0) for future in futures]
        for request, response, signature in zip(requests, responses, expected):
            assert response.request.frame_id == request.frame_id
            assert signatures_equal(response_signature(response), signature)
        metrics = server.metrics.snapshot()
        assert metrics["requests"]["completed"] == len(requests)
        assert metrics["requests"]["dropped"] == 0
        assert metrics["futures_monotonic"] is True

    def test_idle_server_starts_a_lone_request_at_once(self):
        # The clock never advances, so neither the size nor the deadline
        # trigger can fire: only the idle trigger can start the request.
        server = FrameServer(
            session_factory=make_session,
            num_workers=1,
            max_batch_size=8,
            max_wait_seconds=0.005,
            clock=ManualClock(),
        )
        with server:
            response = server.submit(make_request(0)).result(timeout=10.0)
        assert response.request.frame_id == "req0000"
        (record,) = server.metrics.records
        assert record.trigger == "idle"
        assert record.queue_wait == 0

    def test_busy_workers_are_counted_under_thread_contention(self):
        # More workers than cores and a tiny switch interval: a lost update
        # to the busy bookkeeping would leave the pool never idle again.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server = FrameServer(
                session_factory=make_session,
                num_workers=4,
                max_batch_size=2,
                max_wait_seconds=0.001,
            )
            with server:
                futures = [
                    server.submit(make_request(i % 4)) for i in range(40)
                ]
                for future in futures:
                    assert future.result(timeout=60.0) is not None
        finally:
            sys.setswitchinterval(previous)
        assert server.pool.idle()
        assert server.metrics.snapshot()["requests"]["completed"] == 40

    def test_drain_on_shutdown_completes_every_admitted_request(self):
        requests = [make_request(i) for i in range(9)]
        server = FrameServer(
            session_factory=make_session,
            num_workers=2,
            max_batch_size=4,
            # A long deadline: without the drain flush these would sit in
            # the scheduler until the deadline fired.
            max_wait_seconds=60.0,
            queue_capacity=len(requests),
        )
        server.start()
        futures = [server.submit(request) for request in requests]
        metrics = server.shutdown(drain=True)
        assert all(future.done() for future in futures)
        assert metrics["requests"]["completed"] == len(requests)
        assert metrics["requests"]["dropped"] == 0
        expected = self.sequential_signatures(requests)
        for future, signature in zip(futures, expected):
            assert signatures_equal(
                response_signature(future.result(timeout=0)), signature
            )

    def test_shutdown_without_drain_cancels_pending(self):
        requests = [make_request(i) for i in range(6)]
        server = FrameServer(
            session_factory=make_session,
            num_workers=1,
            max_batch_size=8,
            max_wait_seconds=60.0,  # park everything in the scheduler
            queue_capacity=len(requests),
        )
        server.start()
        futures = [server.submit(request) for request in requests]
        metrics = server.shutdown(drain=False)
        # Everything still pending was cancelled (nothing could have been
        # dispatched before the first deadline) and counted as dropped.
        assert all(f.cancelled() or f.done() for f in futures)
        assert any(f.cancelled() for f in futures)
        assert metrics["requests"]["dropped"] == sum(
            1 for f in futures if f.cancelled()
        )
        assert metrics["requests"]["in_flight"] == 0

    def test_shutdown_timeout_is_one_deadline_across_all_joins(self):
        release = threading.Event()
        entered = threading.Semaphore(0)

        class BlockedSession(Session):
            def run_batch(self, frames, batch_size=None):
                entered.release()
                release.wait(30.0)
                return super().run_batch(frames, batch_size)

        server = FrameServer(
            session_factory=lambda: BlockedSession(
                config=small_config(), task="semantic_segmentation",
                sampler="random", response_cache_size=0,
            ),
            num_workers=3,
            max_batch_size=1,
            max_wait_seconds=0.001,
        )
        server.start()
        futures = [server.submit(make_request(i)) for i in range(3)]
        try:
            for _ in range(3):  # every worker is wedged inside a batch
                assert entered.acquire(timeout=10.0)
            started = time.monotonic()
            snapshot = server.shutdown(timeout=0.2)
            elapsed = time.monotonic() - started
            # Not 0.2 s per worker thread (0.6 s): one shared deadline.
            assert 0.2 <= elapsed < 0.5
            # Timed out, yet terminal: closed, snapshot cached for everyone.
            assert server.shutdown() is snapshot
            assert snapshot["requests"]["in_flight"] == 3
            with pytest.raises(QueueClosed):
                server.submit(make_request(9))
        finally:
            release.set()
        assert [f.result(timeout=30.0).request.frame_id for f in futures] == [
            "req0000", "req0001", "req0002",
        ]

    def test_raw_clouds_get_distinct_frame_ids(self):
        # Submitting bare PointClouds (no FrameRequest wrapper) must number
        # them like the synchronous path does, not reuse frame0000.
        clouds = [
            sample_cad_shape(300, shape="box", non_uniformity=0.2, seed=i)
            for i in range(3)
        ]
        server = FrameServer(
            session_factory=make_session, num_workers=1,
            max_wait_seconds=0.001,
        )
        with server:
            futures = [server.submit(cloud) for cloud in clouds]
            ids = [f.result(timeout=60.0).request.frame_id for f in futures]
        assert len(set(ids)) == 3

    def test_submit_after_shutdown_raises(self):
        server = FrameServer(session_factory=make_session, num_workers=1)
        server.start()
        server.shutdown()
        with pytest.raises(QueueClosed):
            server.submit(make_request(0))

    def test_worker_exception_resolves_futures(self):
        class ExplodingSession(Session):
            def run_batch(self, frames, batch_size=None):
                raise RuntimeError("boom")

        server = FrameServer(
            session_factory=lambda: ExplodingSession(
                config=small_config(), task="semantic_segmentation",
                sampler="random", response_cache_size=0,
            ),
            num_workers=1,
            max_wait_seconds=0.001,
        )
        with server:
            future = server.submit(make_request(0))
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=30.0)
        metrics = server.metrics.snapshot()
        assert metrics["requests"]["failed"] == 1
        assert metrics["requests"]["dropped"] == 0

    def test_factory_must_build_distinct_sessions(self):
        shared = make_session()
        server = FrameServer(session_factory=lambda: shared, num_workers=2)
        with pytest.raises(ValueError, match="distinct"):
            server.start()


# ----------------------------------------------------------------------
# run_batch(batch_size=...) guard (the CLI --batch-size fix)
# ----------------------------------------------------------------------
class TestRunBatchBatchSize:
    @pytest.mark.parametrize("bad", [0, -1, -7, 2.5, True])
    def test_rejects_non_positive_batch_size(self, bad):
        session = make_session()
        with pytest.raises(ValueError, match="positive integer"):
            session.run_batch([make_request(0)], batch_size=bad)

    def test_chunked_run_matches_single_batch(self):
        requests = [make_request(i, points=400 if i % 2 else 40) for i in range(6)]
        whole = make_session().run_batch(requests)
        chunked = make_session().run_batch(requests, batch_size=2)
        assert len(chunked) == len(whole)
        for got, expected in zip(chunked.responses, whole.responses):
            assert signatures_equal(
                response_signature(got), response_signature(expected)
            )
        # Groups merge across chunks: per-key counts cover every frame.
        assert sum(chunked.groups.values()) == 6
        assert chunked.groups == whole.groups

    def test_batch_size_larger_than_stream_is_one_batch(self):
        requests = [make_request(i) for i in range(3)]
        result = make_session().run_batch(requests, batch_size=100)
        assert len(result) == 3


# ----------------------------------------------------------------------
# CLI: argparse validation + the serve soak
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_e2e_rejects_negative_batch_size(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["e2e", "--batch-size", "-1"])
        assert excinfo.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_e2e_rejects_non_positive_frames(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["e2e", "--frames", "0"])
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_serve_flag_defaults_are_the_dataclass_defaults(self):
        import argparse

        from repro.serving import ServeConfig

        parser = argparse.ArgumentParser()
        ServeConfig.add_cli_args(parser)
        config = ServeConfig()
        # Flags not named after the field they fill: dest -> (section, field).
        renamed = {
            "traffic": ("traffic", "model"),
            "traffic_raw_points": ("traffic", "raw_points"),
            "chaos": ("chaos", "enabled"),
            "chaos_kill_after": ("chaos", "kill_after"),
            "chaos_slow_ms": ("chaos", "slow_ms"),
        }
        sections = (config.traffic, config.execution, config.chaos)
        flags = [a for a in parser._actions if a.dest != "help"]
        for action in flags:
            if action.dest in renamed:
                section, name = renamed[action.dest]
                owner = getattr(config, section)
            else:
                name = action.dest
                owner = next(
                    (s for s in sections if hasattr(s, name)), config
                )
            default = getattr(owner, name)
            if isinstance(action.default, list):  # repeatable flag
                default = list(default)
            assert action.default == default, action.option_strings
        assert len(flags) == 26
        assert ServeConfig.from_args(parser.parse_args([])) == ServeConfig()

    @pytest.mark.parametrize(
        "flags",
        [
            # Only shed admission load-sheds.
            ["--min-load-sheds", "1"],
            ["--admission", "reject", "--min-load-sheds", "5"],
        ],
    )
    def test_serve_rejects_flags_it_would_ignore_or_crash_on(
        self, flags, tmp_path, capsys
    ):
        from repro.cli import main

        exit_code = main(
            ["serve", "--frames", "6", "--metrics-out",
             str(tmp_path / "metrics.json"), *flags]
        )
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            # NaN made the hand-off spin on zero-length waits (a hang).
            ["--max-wait-ms", "nan"],
            ["--max-wait-ms", "inf"],
            ["--max-wait-ms", "-1"],
            ["--scale", "nan"],
            ["--scale", "1.5"],
            # NaN silently meant "submit everything at once".
            ["--rate-hz", "nan"],
            # NaN silently turned the p99 gate off.
            ["--p99-budget-ms", "nan"],
        ],
    )
    def test_serve_rejects_non_finite_or_out_of_range_numbers(
        self, flags, tmp_path, capsys
    ):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["serve", "--frames", "4", "--workers", "1",
                 "--metrics-out", str(metrics_path), *flags]
            )
        assert excinfo.value.code == 2
        assert f"argument {flags[0]}: expected" in capsys.readouterr().err
        assert not metrics_path.exists()

    def test_serve_soak_passes_and_writes_metrics(self, tmp_path, capsys):
        import json

        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "serve", "--frames", "12", "--workers", "2",
                "--scale", "0.0005", "--samples", "32", "--neighbors", "4",
                "--rate-hz", "0", "--max-wait-ms", "2", "--seed", "0",
                "--metrics-out", str(metrics_path),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "serving soak passed" in out
        report = json.loads(metrics_path.read_text())
        assert report["checks"]["passed"] is True
        assert report["serve"]["verified_bit_identical"] is True
        assert report["metrics"]["requests"]["completed"] == 12
        assert report["metrics"]["futures_monotonic"] is True
        assert len(report["workers"]) == 2

    def test_serve_shed_soak_reports_its_admission_mode(self, tmp_path, capsys):
        import json

        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "serve", "--frames", "12", "--workers", "1",
                "--scale", "0.0005", "--samples", "32", "--neighbors", "4",
                "--rate-hz", "0", "--max-wait-ms", "2", "--seed", "0",
                "--admission", "shed", "--queue-capacity", "2",
                "--metrics-out", str(metrics_path),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "typed load sheds" in out
        report = json.loads(metrics_path.read_text())
        assert report["serve"]["admission"] == "shed"
        assert "policy" not in report["serve"]
        requests = report["metrics"]["requests"]
        # Every frame ends served or typed-shed; nothing is refused.
        assert requests["completed"] + requests["load_shed"] == 12
        assert requests["rejected"] == 0 and requests["in_flight"] == 0
        assert report["checks"]["passed"] is True

    def test_serve_rejects_unknown_execution(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--execution", "coroutine"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_refuses_process_without_shared_memory(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.serving.cluster import transport

        monkeypatch.setattr(transport, "_shared_memory_module", None)
        exit_code = main(["serve", "--frames", "2", "--execution", "process"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err
        assert "--execution thread" in captured.err

    def test_serve_soak_process_execution(self, tmp_path, capsys):
        import json

        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "serve", "--frames", "12", "--workers", "2",
                "--execution", "process",
                "--scale", "0.0005", "--samples", "32", "--neighbors", "4",
                "--rate-hz", "0", "--max-wait-ms", "2", "--seed", "0",
                "--metrics-out", str(metrics_path),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, out
        report = json.loads(metrics_path.read_text())
        assert report["serve"]["execution"] == "process"
        assert report["serve"]["verified_bit_identical"] is True
        assert report["metrics"]["requests"]["completed"] == 12
        # An idle worker would be visible without the benchmark harness.
        assert "worker balance (min/max completed)" in out
        per_worker = report["metrics"]["per_worker"]
        assert set(per_worker) <= {"serving-proc-0", "serving-proc-1"}
        assert sum(w["completed"] for w in per_worker.values()) == 12
