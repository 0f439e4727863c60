"""Tests for the serving-policy layer (``repro.serving.policy``).

Every mechanism runs on the injectable clock, so these tests drive
priority preemption, selection order and SLO-aware admission shedding
deterministically with a :class:`ManualClock` -- no real sleeps anywhere in
the scheduler-level tests.  ``TestShedAdmission`` goes through a live
:class:`FrameServer` to pin the typed-failure contract: under shed
admission a request is completed or ``LoadShed`` -- never a raised
``QueueFull``, never a silent drop.
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
    AdmissionQueue,
    FrameServer,
    LoadShed,
    ManualClock,
    MicroBatchScheduler,
    PriorityClass,
    QueuedRequest,
    ServingMetrics,
    ServingPolicy,
    SubmitOptions,
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
        assert policy.resolve().name == "low"
        assert policy.resolve("high").priority == 10

    def test_resolve_unknown_class_is_typed(self):
        policy = ServingPolicy()
        with pytest.raises(KeyError, match="nosuch"):
            policy.resolve("nosuch")

    def test_describe_is_json_friendly(self):
        policy = ServingPolicy(
            classes=(
                PriorityClass("rt", priority=5, slo_ms=30.0, preempt=True),
            ),
            default_class="rt",
            admission="shed",
            max_backlog=4,
        )
        desc = policy.describe()
        assert desc["admission"] == "shed"
        assert desc["max_backlog"] == 4
        assert desc["classes"][0] == {
            "name": "rt", "priority": 5, "slo_ms": 30.0, "preempt": True,
        }


# ----------------------------------------------------------------------
# Scheduler under a policy: preemption, visit and selection order
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
# SubmitOptions: the one way to pass per-request knobs
# ----------------------------------------------------------------------
class TestSubmitOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubmitOptions(ttl=0.0)

    def test_coerce_passes_options_through(self):
        options = SubmitOptions(ttl=1.0, class_name="rt")
        assert SubmitOptions.coerce(options) is options
        assert SubmitOptions.coerce(None) == SubmitOptions()

    def test_legacy_kwargs_are_a_type_error(self):
        # Rejected at argument binding, so no server ever starts.
        submits = (
            AdmissionQueue(capacity=4).submit,
            FrameServer(session_factory=make_session, num_workers=1).submit,
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
        per_class = metrics.snapshot()["per_class"]
        assert set(per_class) == {"high", "low"}
        assert per_class["high"]["completed"] == 3
        assert per_class["high"]["latency_ms"]["p50"] == pytest.approx(20.0)
        assert per_class["low"]["completed"] == 1
        assert per_class["low"]["failed"] == 1
        assert per_class["low"]["load_shed"] == 2
        # Failed requests do not pollute the latency percentiles.
        assert per_class["low"]["latency_ms"]["p99"] == pytest.approx(500.0)

    def test_classes_with_only_typed_outcomes_still_appear(self):
        metrics = ServingMetrics()
        metrics.record_load_shed("bursty")
        per_class = metrics.snapshot()["per_class"]
        assert per_class["bursty"]["completed"] == 0
        assert per_class["bursty"]["load_shed"] == 1
        assert per_class["bursty"]["latency_ms"]["p99"] == 0.0
