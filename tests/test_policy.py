"""Tests for the serving-policy layer (``repro.serving.policy``).

Every mechanism runs on the injectable clock, so these tests drive token
buckets, the adaptive deadline trigger, priority preemption, and SLO-aware
admission shedding deterministically with a :class:`ManualClock` -- no real
sleeps anywhere in the scheduler-level tests.  The end-to-end classes
(``TestShedAdmission``, ``TestRateLimitEndToEnd``) go through a live
:class:`FrameServer` to pin the typed-failure contract: under a policy a
request is completed, ``LoadShed``, or ``RateLimitExceeded`` -- never a
raised ``QueueFull``, never a silent drop.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

import pytest

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.datasets.synthetic import sample_cad_shape
from repro.serving import (
    AdaptiveMaxWait,
    AdmissionQueue,
    FrameServer,
    LoadShed,
    ManualClock,
    MicroBatchScheduler,
    PriorityClass,
    QueuedRequest,
    RateLimitExceeded,
    ServingMetrics,
    ServingPolicy,
    SubmitOptions,
    TokenBucket,
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


def make_entry(
    sequence: int,
    clock: ManualClock,
    priority: int = 0,
    class_name: str = "default",
) -> QueuedRequest:
    return QueuedRequest(
        request=make_request(sequence),
        future=Future(),
        sequence=sequence,
        enqueued_at=clock(),
        priority=priority,
        class_name=class_name,
    )


def flat_key(request: FrameRequest):
    """A shape-key function collapsing everything into one group."""
    return ("semantic_segmentation", 64, 3)


# ----------------------------------------------------------------------
# Policy configuration
# ----------------------------------------------------------------------
class TestServingPolicyConfig:
    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ServingPolicy(
                classes=(PriorityClass("a"), PriorityClass("a")),
                default_class="a",
            )

    def test_default_class_must_be_a_member(self):
        with pytest.raises(ValueError, match="default_class"):
            ServingPolicy(
                classes=(PriorityClass("a"),), default_class="missing"
            )

    def test_admission_mode_validated(self):
        with pytest.raises(ValueError, match="admission"):
            ServingPolicy(admission="panic")

    def test_resolve_defaults_and_overrides(self):
        policy = ServingPolicy(
            classes=(
                PriorityClass("low", priority=0),
                PriorityClass("high", priority=10),
            ),
            default_class="low",
        )
        cls, priority = policy.resolve()
        assert cls.name == "low" and priority == 0
        cls, priority = policy.resolve("high")
        assert cls.name == "high" and priority == 10
        # An explicit per-request priority overrides the class rank but
        # keeps the class identity.
        cls, priority = policy.resolve("low", priority=7)
        assert cls.name == "low" and priority == 7

    def test_resolve_unknown_class_is_typed(self):
        policy = ServingPolicy()
        with pytest.raises(KeyError, match="nosuch"):
            policy.resolve("nosuch")

    def test_describe_is_json_friendly(self):
        policy = ServingPolicy(
            classes=(
                PriorityClass(
                    "rt", priority=5, slo_ms=30.0,
                    max_wait_seconds=0.001, preempt=True,
                ),
            ),
            default_class="rt",
            admission="shed",
            max_backlog=4,
        )
        desc = policy.describe()
        assert desc["admission"] == "shed"
        assert desc["max_backlog"] == 4
        assert desc["classes"][0] == {
            "name": "rt", "priority": 5, "slo_ms": 30.0,
            "max_wait_ms": 1.0, "preempt": True,
        }


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_denies_past_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_hz=10.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [True] * 3
        # No time has passed on the manual clock: the fourth is denied,
        # deterministically, however many times it retries.
        assert not bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_is_exact_on_the_manual_clock(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_hz=10.0, burst=2, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        # 10 Hz * 0.1 s = exactly one token back.
        clock.advance(0.1)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        # Half a token is not a token.
        clock.advance(0.05)
        assert not bucket.try_acquire()
        clock.advance(0.05)
        assert bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_hz=100.0, burst=2, clock=clock)
        clock.advance(60.0)  # a minute of accrual cannot exceed the cap
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_hz=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_hz=1.0, burst=0)


# ----------------------------------------------------------------------
# Adaptive max-wait
# ----------------------------------------------------------------------
class TestAdaptiveMaxWait:
    def test_base_wait_until_two_arrivals(self):
        wait = AdaptiveMaxWait(base_wait_seconds=0.005, batch_size=8)
        assert wait.current() == 0.005
        wait.observe(1.0)
        # One arrival gives no gap yet.
        assert wait.current() == 0.005
        assert wait.mean_interarrival is None

    def test_converges_to_companion_time_under_regular_arrivals(self):
        # At a steady 1 kHz the mean gap converges to 1 ms, so an
        # 8-deep batch plausibly assembles in 7 ms -- above the 5 ms
        # ceiling, which must keep binding (adaptation never waits
        # *longer* than configured).
        wait = AdaptiveMaxWait(
            base_wait_seconds=0.005, floor_seconds=0.0005, alpha=0.2,
            batch_size=8,
        )
        for i in range(50):
            wait.observe(i * 0.001)
        assert wait.mean_interarrival == pytest.approx(0.001, rel=1e-6)
        assert wait.current() == 0.005

        # Ten times the arrival rate: companions now take 0.7 ms, and the
        # wait collapses below the ceiling (but stays above the floor).
        fast = AdaptiveMaxWait(
            base_wait_seconds=0.005, floor_seconds=0.0005, alpha=0.2,
            batch_size=8,
        )
        for i in range(50):
            fast.observe(i * 0.0001)
        assert fast.current() == pytest.approx(7 * 0.0001, rel=1e-6)

    def test_tracks_the_ewma_recurrence_exactly(self):
        alpha = 0.3
        wait = AdaptiveMaxWait(
            base_wait_seconds=1.0, floor_seconds=0.0, alpha=alpha,
            batch_size=4,
        )
        gaps = [0.010, 0.002, 0.030, 0.001]
        now, mean = 0.0, None
        wait.observe(now)
        for gap in gaps:
            now += gap
            wait.observe(now)
            mean = gap if mean is None else mean + alpha * (gap - mean)
        assert wait.mean_interarrival == pytest.approx(mean, rel=1e-12)
        assert wait.current() == pytest.approx(
            min(1.0, max(0.0, 3 * mean)), rel=1e-12
        )

    def test_floor_binds_under_saturating_traffic(self):
        wait = AdaptiveMaxWait(
            base_wait_seconds=0.005, floor_seconds=0.0005, batch_size=8
        )
        for _ in range(20):
            wait.observe(0.0)  # simultaneous arrivals: zero gaps
        assert wait.current() == 0.0005

    def test_policy_wires_the_adaptive_wait_into_the_scheduler(self):
        clock = ManualClock()
        policy = ServingPolicy(adaptive_max_wait=True, min_wait_seconds=0.0005)
        scheduler = MicroBatchScheduler(
            shape_key=flat_key, max_batch_size=4, max_wait_seconds=0.005,
            clock=clock, policy=policy,
        )
        assert scheduler.current_max_wait() == 0.005
        for i in range(20):
            scheduler.add(make_entry(i, clock))
            clock.advance(0.001)
        # Observed gaps of 1 ms: three companions take 3 ms, so the
        # deadline trigger tightened below the configured 5 ms (but
        # stayed above the 0.5 ms floor).
        assert scheduler.current_max_wait() == pytest.approx(
            3 * 0.001, rel=1e-6
        )


# ----------------------------------------------------------------------
# Scheduler under a policy: preemption, per-class caps, selection order
# ----------------------------------------------------------------------
PREEMPT_POLICY = ServingPolicy(
    classes=(
        PriorityClass("low", priority=0),
        PriorityClass("high", priority=10, preempt=True),
    ),
    default_class="low",
)


class TestSchedulerPolicy:
    def make_scheduler(self, clock, policy=PREEMPT_POLICY, **overrides):
        options = dict(
            shape_key=flat_key, max_batch_size=4, max_wait_seconds=60.0,
            clock=clock, policy=policy,
        )
        options.update(overrides)
        return MicroBatchScheduler(**options)

    def test_preempting_arrival_fires_the_priority_trigger(self):
        clock = ManualClock()
        scheduler = self.make_scheduler(clock)
        scheduler.add(make_entry(0, clock, priority=0, class_name="low"))
        # Below the size trigger, deadline an hour away: nothing ready.
        assert scheduler.ready() == []
        scheduler.add(make_entry(1, clock, priority=10, class_name="high"))
        batches = scheduler.ready()
        assert len(batches) == 1
        assert batches[0].trigger == "priority"
        # The whole (under-full) group rides out with the preemptor.
        assert [e.sequence for e in batches[0].entries] == [0, 1]
        assert scheduler.pending_count == 0

    def test_non_preempting_class_waits_for_its_triggers(self):
        clock = ManualClock()
        scheduler = self.make_scheduler(clock)
        scheduler.add(make_entry(0, clock, priority=0, class_name="low"))
        scheduler.add(make_entry(1, clock, priority=0, class_name="low"))
        assert scheduler.ready() == []
        assert scheduler.pending_count == 2

    def test_overfull_preempted_group_selects_by_priority_emits_by_sequence(
        self,
    ):
        clock = ManualClock()
        scheduler = self.make_scheduler(clock, max_batch_size=2)
        scheduler.add(make_entry(0, clock, priority=0, class_name="low"))
        scheduler.add(make_entry(1, clock, priority=3, class_name="low"))
        scheduler.add(make_entry(2, clock, priority=10, class_name="high"))
        batches = scheduler.ready()
        # The priority trigger takes the two highest-priority members
        # (sequences 1 and 2) -- but in admission order, so per-batch
        # future resolution stays monotonic.  The overflow entry then
        # waits for its own trigger rather than leaving out of order.
        assert batches[0].trigger == "priority"
        assert [e.sequence for e in batches[0].entries] == [1, 2]
        assert scheduler.pending_count == 1

    def test_per_class_wait_caps_the_deadline_trigger(self):
        clock = ManualClock()
        policy = ServingPolicy(
            classes=(
                PriorityClass("rt", priority=5, max_wait_seconds=0.001),
                PriorityClass("bulk", priority=0),
            ),
            default_class="bulk",
        )
        scheduler = self.make_scheduler(clock, policy=policy)
        scheduler.add(make_entry(0, clock, priority=5, class_name="rt"))
        clock.advance(0.0005)
        assert scheduler.ready() == []
        clock.advance(0.0006)  # past the 1 ms class cap, far below 60 s
        batches = scheduler.ready()
        assert len(batches) == 1 and batches[0].trigger == "deadline"

    def test_higher_priority_group_jumps_the_visit_order(self):
        clock = ManualClock()
        by_points = lambda request: ("task", len(request.cloud.points), 3)
        scheduler = MicroBatchScheduler(
            shape_key=by_points, max_batch_size=2, max_wait_seconds=0.0,
            clock=clock, policy=PREEMPT_POLICY,
        )
        scheduler.add(
            QueuedRequest(
                request=make_request(0, points=300), future=Future(),
                sequence=0, enqueued_at=clock(), priority=0, class_name="low",
            )
        )
        scheduler.add(
            QueuedRequest(
                request=make_request(1, points=500), future=Future(),
                sequence=1, enqueued_at=clock(), priority=10, class_name="high",
            )
        )
        batches = scheduler.ready()
        # Two shape groups, both deadline-expired (wait 0): the
        # high-priority group's batch is formed first.
        assert len(batches) == 2
        assert [e.sequence for e in batches[0].entries] == [1]
        assert [e.sequence for e in batches[1].entries] == [0]

    def test_steal_lowest_picks_youngest_lowest_and_removes_it(self):
        clock = ManualClock()
        scheduler = self.make_scheduler(clock)
        scheduler.add(make_entry(0, clock, priority=0, class_name="low"))
        scheduler.add(make_entry(1, clock, priority=0, class_name="low"))
        scheduler.add(make_entry(2, clock, priority=10, class_name="high"))
        victim = scheduler.steal_lowest(10)
        # Lowest priority, youngest among ties: sequence 1, not 0.
        assert victim is not None and victim.sequence == 1
        assert scheduler.pending_count == 2
        # Nothing ranks strictly below priority 0.
        assert scheduler.steal_lowest(0) is None
        # Removal must work although QueuedRequest carries numpy payloads
        # (identity-based removal, not __eq__).
        assert scheduler.steal_lowest(10) is not None
        assert scheduler.pending_count == 1


class TestAdmissionQueueSteal:
    def test_steal_lowest_frees_a_slot(self):
        clock = ManualClock()
        queue = AdmissionQueue(capacity=4, clock=clock)
        queue.submit(make_request(0), priority=0, class_name="low")
        queue.submit(make_request(1), priority=0, class_name="low")
        queue.submit(make_request(2), priority=10, class_name="high")
        victim = queue.steal_lowest(10)
        assert victim is not None and victim.sequence == 1
        assert len(queue) == 2
        assert queue.steal_lowest(0) is None
        remaining = [queue.pop(timeout=0.1).sequence for _ in range(2)]
        assert remaining == [0, 2]


# ----------------------------------------------------------------------
# SLO-aware admission shedding, end to end through a live server
# ----------------------------------------------------------------------
SHED_POLICY = ServingPolicy(
    classes=(
        PriorityClass("low", priority=0),
        PriorityClass("high", priority=10, preempt=False),
    ),
    default_class="low",
    admission="shed",
    max_backlog=1,
)


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
        queue_capacity=16,
        **options,
    )
    return server, gate, entered


class TestShedAdmission:
    def test_high_priority_arrival_evicts_pending_low_work(self):
        server, gate, entered = gated_server(policy=SHED_POLICY)
        with server:
            running = server.submit(
                make_request(9), options=SubmitOptions(class_name="low")
            )
            assert entered.wait(10.0)  # the worker is busy from here on
            low = server.submit(
                make_request(0), options=SubmitOptions(class_name="low")
            )
            assert server._waiting_depth() == 1  # == max_backlog
            high = server.submit(
                make_request(1), options=SubmitOptions(class_name="high")
            )
            # The low-priority victim was resolved typed, immediately.
            with pytest.raises(LoadShed):
                low.result(timeout=5.0)
            assert server._waiting_depth() == 1
            # A second low submit finds only the high entry waiting:
            # nothing ranks below it, so the incoming request itself is
            # shed -- QueueFull is never raised under shed admission.
            incoming = server.submit(
                make_request(2), options=SubmitOptions(class_name="low")
            )
            with pytest.raises(LoadShed):
                incoming.result(timeout=5.0)
            gate.set()
            snapshot = server.shutdown(drain=True)
        # The started request and the surviving high one completed; the
        # sheds are typed, per-class, and nothing was lost.
        assert running.result(timeout=5.0).request.frame_id == "req0009"
        assert high.result(timeout=5.0).request.frame_id == "req0001"
        assert snapshot["requests"]["completed"] == 2
        assert snapshot["requests"]["load_shed"] == 2
        assert snapshot["requests"]["rejected"] == 0
        assert snapshot["requests"]["in_flight"] == 0
        assert snapshot["per_class"]["low"]["load_shed"] == 2
        assert snapshot["per_class"]["high"]["completed"] == 1

    def test_equal_priority_overload_sheds_the_incoming_request(self):
        server, gate, entered = gated_server(policy=SHED_POLICY)
        with server:
            server.submit(make_request(9), options=SubmitOptions(class_name="low"))
            assert entered.wait(10.0)
            first = server.submit(
                make_request(0), options=SubmitOptions(class_name="low")
            )
            second = server.submit(
                make_request(1), options=SubmitOptions(class_name="low")
            )
            # Equal priority is not *strictly* lower: the earlier request
            # keeps its slot and the newcomer is shed.
            with pytest.raises(LoadShed):
                second.result(timeout=5.0)
            gate.set()
            server.shutdown(drain=True)
        assert first.result(timeout=5.0).request.frame_id == "req0000"


# ----------------------------------------------------------------------
# Rate limiting, end to end
# ----------------------------------------------------------------------
class TestRateLimitEndToEnd:
    def test_denied_submit_resolves_typed_without_counting_submitted(self):
        policy = ServingPolicy(
            rate_limit_hz=1e-6,  # effectively no refill within the test
            rate_limit_burst=1,
        )
        server = FrameServer(
            session_factory=make_session,
            num_workers=1,
            max_batch_size=4,
            max_wait_seconds=0.002,
            queue_capacity=8,
            policy=policy,
        )
        with server:
            admitted = server.submit(make_request(0))
            denied = server.submit(make_request(1))
            with pytest.raises(RateLimitExceeded):
                denied.result(timeout=5.0)
            assert admitted.result(timeout=60.0).request.frame_id == "req0000"
            snapshot = server.shutdown(drain=True)
        # The denial happened before admission: submitted counts only the
        # served request, and the denial is a typed per-class counter.
        assert snapshot["requests"]["submitted"] == 1
        assert snapshot["requests"]["rate_limited"] == 1
        assert snapshot["resilience"]["rate_limited"] == 1
        assert snapshot["per_class"]["default"]["rate_limited"] == 1


# ----------------------------------------------------------------------
# SubmitOptions: the one way to pass per-request knobs
# ----------------------------------------------------------------------
class TestSubmitOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubmitOptions(ttl=0.0)
        with pytest.raises(ValueError):
            SubmitOptions(timeout=-1.0)

    def test_coerce_passes_options_through(self):
        options = SubmitOptions(ttl=1.0, class_name="rt")
        assert SubmitOptions.coerce(options) is options
        assert SubmitOptions.coerce(None) == SubmitOptions()

    def test_legacy_kwargs_are_a_type_error(self):
        # Rejected at argument binding, so no server ever starts.
        submits = (
            AdmissionQueue(capacity=4).submit,
            FrameServer(session_factory=make_session, num_workers=1).submit,
            make_session().submit,
        )
        for submit in submits:
            for legacy in ({"block": True}, {"timeout": 2.0}, {"ttl": 1.0}):
                with pytest.raises(TypeError):
                    submit(make_request(0), **legacy)
        with pytest.raises(TypeError):
            SubmitOptions.coerce(ttl=1.0)

    def test_mixing_options_and_legacy_kwargs_raises(self):
        with pytest.raises(TypeError):
            AdmissionQueue(capacity=4).submit(
                make_request(0), options=SubmitOptions(), ttl=1.0
            )


# ----------------------------------------------------------------------
# Per-class metrics
# ----------------------------------------------------------------------
class TestPerClassMetrics:
    @staticmethod
    def record(metrics, sequence, class_name, latency, ok=True):
        from repro.serving import RequestRecord

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
                class_name=class_name,
            )
        )

    def test_breakdown_counts_and_percentiles(self):
        metrics = ServingMetrics()
        for i, latency in enumerate([0.010, 0.020, 0.030]):
            self.record(metrics, i, "high", latency)
        self.record(metrics, 3, "low", 0.500)
        self.record(metrics, 4, "low", 0.100, ok=False)
        metrics.record_load_shed("low")
        metrics.record_load_shed("low")
        metrics.record_rate_limited("high")
        per_class = metrics.snapshot()["per_class"]
        assert set(per_class) == {"high", "low"}
        assert per_class["high"]["completed"] == 3
        assert per_class["high"]["rate_limited"] == 1
        assert per_class["high"]["latency_ms"]["p50"] == pytest.approx(20.0)
        assert per_class["low"]["completed"] == 1
        assert per_class["low"]["failed"] == 1
        assert per_class["low"]["load_shed"] == 2
        # Failed requests do not pollute the latency percentiles.
        assert per_class["low"]["latency_ms"]["p99"] == pytest.approx(500.0)

    def test_classes_with_only_typed_outcomes_still_appear(self):
        metrics = ServingMetrics()
        metrics.record_rate_limited("bursty")
        per_class = metrics.snapshot()["per_class"]
        assert per_class["bursty"]["completed"] == 0
        assert per_class["bursty"]["rate_limited"] == 1
        assert per_class["bursty"]["latency_ms"]["p99"] == 0.0
