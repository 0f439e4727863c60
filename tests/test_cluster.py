"""Tests for process serving.

Covers the ``ProcessWorkerPool`` behind ``FrameServer(execution="process")``
(bit-identity with a sequential ``run_batch``, inline-fallback equivalence,
worker exceptions vs worker crashes, shape-key affinity, two process
servers in one parent), the shutdown idempotency guarantees the process
pool relies on, and that no child outlives its pool on any exit path.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.datasets.synthetic import sample_cad_shape
from repro.geometry.pointcloud import PointCloud
from repro.serving import (
    FaultPlan,
    FrameServer,
    RetryPolicy,
    WorkerCrashed,
    WorkerError,
    response_signature,
    signatures_equal,
)
from repro.serving.cluster import transport
from repro.serving.cluster.pool import ProcessWorkerPool
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


def reachable(root, kinds):
    """Every instance of ``kinds`` reachable from ``root`` by reference.

    Follows ``gc.get_referents`` through containers and instances, but not
    into classes, modules or functions (those lead to the whole program).
    """
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, kinds):
            found.append(obj)
        for referent in gc.get_referents(obj):
            if id(referent) not in seen and not isinstance(referent, opaque):
                seen.add(id(referent))
                stack.append(referent)
    return found


def reference_signatures(requests):
    session = make_session()
    return [
        response_signature(response)
        for response in session.run_batch(requests).responses
    ]


class CrashingSession(Session):
    """Hard-exits the worker process on a poison frame (no cleanup)."""

    def run_batch(self, frames, **kwargs):
        if any(
            FrameRequest.coerce(f).frame_id == "poison" for f in frames
        ):
            os._exit(42)
        return super().run_batch(frames, **kwargs)


class ExplodingSession(Session):
    """Raises (but survives) on a poison frame."""

    def run_batch(self, frames, **kwargs):
        if any(
            FrameRequest.coerce(f).frame_id == "poison" for f in frames
        ):
            raise ValueError("refused poison frame")
        return super().run_batch(frames, **kwargs)


class SlowSession(Session):
    """Adds a fixed sleep per batch (to hold batches in flight)."""

    delay_seconds = 0.2

    def run_batch(self, frames, **kwargs):
        time.sleep(self.delay_seconds)
        return super().run_batch(frames, **kwargs)


def slow_factory():
    return SlowSession(
        config=small_config(),
        task="semantic_segmentation",
        sampler="random",
        response_cache_size=0,
    )


def crashing_factory():
    return CrashingSession(
        config=small_config(),
        task="semantic_segmentation",
        sampler="random",
        response_cache_size=0,
    )


def exploding_factory():
    return ExplodingSession(
        config=small_config(),
        task="semantic_segmentation",
        sampler="random",
        response_cache_size=0,
    )


# ----------------------------------------------------------------------
# Process execution behind FrameServer
# ----------------------------------------------------------------------
class TestProcessExecution:
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_bit_identical_to_sequential_run_batch(self, num_workers):
        requests = [
            make_request(i, points=380 + (i % 3) * 40) for i in range(12)
        ]
        expected = reference_signatures(requests)
        with FrameServer(
            make_session,
            num_workers=num_workers,
            execution="process",
            max_wait_seconds=0.002,
            name=f"proc{num_workers}",
        ) as server:
            futures = [server.submit(request) for request in requests]
            responses = [future.result(timeout=60) for future in futures]
        snapshot = server.shutdown()
        assert snapshot["requests"]["completed"] == len(requests)
        assert snapshot["requests"]["failed"] == 0
        assert snapshot["futures_monotonic"]
        for response, signature in zip(responses, expected):
            assert signatures_equal(response_signature(response), signature)

    def test_inline_fallback_still_bit_identical(self, monkeypatch):
        # Children fork after the monkeypatch, so they inherit it too.
        monkeypatch.setattr(transport, "_shared_memory_module", None)
        requests = [make_request(i) for i in range(6)]
        expected = reference_signatures(requests)
        with FrameServer(
            make_session,
            num_workers=2,
            execution="process",
            max_wait_seconds=0.002,
            name="inline",
        ) as server:
            assert server.pool._force_inline
            futures = [server.submit(request) for request in requests]
            responses = [future.result(timeout=60) for future in futures]
        for response, signature in zip(responses, expected):
            assert signatures_equal(response_signature(response), signature)

    def test_worker_exception_fails_batch_but_worker_survives(self):
        with FrameServer(
            exploding_factory,
            num_workers=1,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="explode",
        ) as server:
            poison = server.submit(
                FrameRequest(
                    cloud=sample_cad_shape(400, shape="box", seed=5),
                    frame_id="poison",
                )
            )
            with pytest.raises(WorkerError, match="refused poison frame"):
                poison.result(timeout=60)
            # Same process keeps serving: no crash, no respawn.
            ok = server.submit(make_request(1)).result(timeout=60)
            assert ok.result.frame_id == "req0001"
            assert server.pool.respawns == 0

    def test_worker_crash_fails_batch_respawns_and_drains(self):
        # retries disabled: this test pins the PR 6 fail-fast semantics
        # (the retry path has its own tests in test_resilience.py).
        server = FrameServer(
            crashing_factory,
            num_workers=1,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="crash",
            retry_policy=RetryPolicy(max_attempts=1),
        ).start()
        before = server.submit(make_request(0)).result(timeout=60)
        assert before.result.frame_id == "req0000"
        poison = server.submit(
            FrameRequest(
                cloud=sample_cad_shape(400, shape="box", seed=9),
                frame_id="poison",
            )
        )
        with pytest.raises(WorkerCrashed, match="exit code 42"):
            poison.result(timeout=60)
        # The pool respawned the worker; later requests are served by the
        # replacement and the server still drains cleanly.
        after = server.submit(make_request(1)).result(timeout=60)
        assert after.result.frame_id == "req0001"
        assert server.pool.respawns == 1
        snapshot = server.shutdown()
        assert snapshot["requests"]["completed"] == 2
        assert snapshot["requests"]["failed"] == 1
        assert snapshot["requests"]["in_flight"] == 0

    def test_shape_key_affinity_sticks_and_spreads(self):
        # Sampled size clamps at num_samples, so 16-point clouds key at 16
        # and 45-point clouds at 24: two distinct warm-shape keys.
        requests = (
            [make_request(i, points=16) for i in range(4)]
            + [make_request(10 + i, points=45) for i in range(4)]
        )
        with FrameServer(
            lambda: make_session(config=small_config(num_samples=24)),
            num_workers=2,
            execution="process",
            max_batch_size=2,
            max_wait_seconds=0.001,
            name="affine",
        ) as server:
            for request in requests:
                server.submit(request).result(timeout=60)
            affinity = dict(server.pool._affinity)
        # Two distinct sampled sizes -> two keys, spread over both workers.
        assert len(affinity) == 2
        assert sorted(affinity.values()) == [0, 1]
        records = server.metrics.records
        by_key_worker = {
            (record.batch_size, record.worker) for record in records
        }
        # Every record of one shape names one worker (sticky placement).
        workers = {record.worker for record in records}
        assert len(workers) == 2

    def test_single_key_burst_spills_to_every_worker(self):
        # One warm-shape key, batches held in flight by a slow session: the
        # second batch finds its home busy and spills to the idle worker.
        requests = [make_request(i) for i in range(6)]
        expected = reference_signatures(requests)
        with FrameServer(
            slow_factory,
            num_workers=2,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="burst",
        ) as server:
            futures = [server.submit(request) for request in requests]
            responses = [future.result(timeout=60) for future in futures]
            affinity = dict(server.pool._affinity)
        snapshot = server.shutdown()
        assert list(affinity.values()) == [0]  # one key, one home
        per_worker = snapshot["per_worker"]
        assert sorted(per_worker) == ["burst-proc-0", "burst-proc-1"]
        completed = [w["completed"] for w in per_worker.values()]
        assert sum(completed) == 6 and min(completed) >= 1
        assert snapshot["futures_monotonic"]
        assert snapshot["requests"]["failed"] == 0
        for response, signature in zip(responses, expected):
            assert signatures_equal(response_signature(response), signature)

    def test_one_at_a_time_traffic_stays_on_the_home_worker(self):
        with FrameServer(
            make_session,
            num_workers=2,
            execution="process",
            max_wait_seconds=0.001,
            name="home",
        ) as server:
            for i in range(5):
                server.submit(make_request(i)).result(timeout=60)
            affinity = dict(server.pool._affinity)
        assert list(affinity.values()) == [0]
        assert {r.worker for r in server.metrics.records} == {"home-proc-0"}
        assert server.metrics.snapshot()["per_worker"] == {
            "home-proc-0": {"completed": 5, "batches": 5}
        }

    def test_responses_reference_the_submitted_cloud(self):
        # The child back-references the request clouds instead of shipping
        # them; the parent patches in the caller's own objects, so the
        # process path aliases exactly what the thread path aliases.
        requests = [make_request(i) for i in range(3)]
        for execution in ("thread", "process"):
            with FrameServer(
                make_session,
                num_workers=1,
                execution=execution,
                max_wait_seconds=0.002,
                name=f"alias-{execution}",
            ) as server:
                futures = [server.submit(request) for request in requests]
                responses = [future.result(timeout=60) for future in futures]
            for request, response in zip(requests, responses):
                assert response.request.cloud is request.cloud
                # Nothing else in a response holds a cloud: the octree (and
                # its reference to the raw frame) stays in the engine.
                clouds = reachable(response, PointCloud)
                assert {id(cloud) for cloud in clouds} == {
                    id(request.cloud),
                    id(response.result.preprocessing.sampled),
                }

    def test_two_process_servers_in_one_parent(self, monkeypatch):
        # Two process servers at once in one parent (e.g. one per task):
        # each has a worker 0 sending a batch 0, so only the pool token
        # keeps their request-segment names apart.
        from repro.serving.cluster import pool as pool_module

        names = []
        segment_name = pool_module._request_segment_name

        def recording_segment_name(*args):
            names.append(segment_name(*args))
            return names[-1]

        monkeypatch.setattr(
            pool_module, "_request_segment_name", recording_segment_name
        )
        before = set(glob.glob("/dev/shm/repro-*"))
        requests = [make_request(i) for i in range(6)]
        expected = reference_signatures(requests)
        options = dict(
            num_workers=1, execution="process", max_wait_seconds=0.002
        )
        with (
            FrameServer(make_session, name="twin0", **options) as first,
            FrameServer(make_session, name="twin1", **options) as second,
        ):
            servers = (first, second)
            futures = [
                [server.submit(request) for server in servers]
                for request in requests
            ]
            responses = [
                [future.result(timeout=60) for future in pair]
                for pair in futures
            ]
        for server in servers:
            assert server.shutdown()["futures_monotonic"]
        for pair, signature in zip(responses, expected):
            for response in pair:
                assert signatures_equal(response_signature(response), signature)
        assert len(names) == len(set(names))
        assert len({name.split("-")[3] for name in names}) == 2  # two tokens
        assert set(glob.glob("/dev/shm/repro-*")) <= before

    def test_orphan_result_is_released_without_being_decoded(self, monkeypatch):
        from repro.serving.cluster import pool as pool_module

        with FrameServer(
            make_session, num_workers=1, execution="process", name="orphan"
        ) as server:
            server.submit(make_request(0)).result(timeout=60)
            arena = transport.SharedMemoryArena(prefix="repro-test-orphan")
            wire = transport.encode_payload({"a": np.arange(4.0)}, arena=arena)
            monkeypatch.setattr(
                pool_module,
                "decode_payload",
                lambda *a, **k: pytest.fail("orphan result was decoded"),
            )
            # No batch 999 is in flight: a result the crash sweep already
            # failed.  Its segment is reclaimed by name, unread.
            server.pool._handle_result(("result", 0, 0, 999, wire, {}))
            monkeypatch.undo()
            if wire.segment is not None:
                assert not arena.release(wire.segment)  # already gone
            after = server.submit(make_request(1)).result(timeout=60)
            assert after.result.frame_id == "req0001"

    def test_children_cap_blas_to_their_core_share_across_respawn(self):
        from repro.parallel import available_cores, blas

        controllable = bool(blas._mapped_blas_libraries())
        try:
            import threadpoolctl  # noqa: F401

            controllable = True
        except ImportError:
            pass
        share = max(1, available_cores() // 2) if controllable else None
        server = FrameServer(
            crashing_factory,
            num_workers=2,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="blas",
            retry_policy=RetryPolicy(max_attempts=1),
        ).start()
        try:
            server.submit(make_request(0)).result(timeout=60)
            assert server.worker_stats()[0]["blas_threads"] == share
            poison = server.submit(
                FrameRequest(
                    cloud=sample_cad_shape(400, shape="box", seed=9),
                    frame_id="poison",
                )
            )
            with pytest.raises(WorkerCrashed):
                poison.result(timeout=60)
            # Generation 1 of the slot reports the same cap.
            server.submit(make_request(1)).result(timeout=60)
            assert server.pool.respawns == 1
            stats = server.worker_stats()[0]
            assert stats["frames_processed"] == 1
            assert stats["blas_threads"] == share
        finally:
            server.shutdown()

    def test_worker_stats_reported_from_children(self):
        with FrameServer(
            make_session,
            num_workers=2,
            execution="process",
            max_wait_seconds=0.002,
            name="stats",
        ) as server:
            futures = [server.submit(make_request(i)) for i in range(6)]
            for future in futures:
                future.result(timeout=60)
            stats = server.worker_stats()
        assert len(stats) == 2
        served = sum(s.get("frames_processed", 0) for s in stats)
        assert served == 6

    def test_response_bytes_count_what_the_children_shipped(self):
        requests = [make_request(i) for i in range(5)]
        with FrameServer(
            make_session,
            num_workers=2,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="bytes",
        ) as server:
            futures = [server.submit(request) for request in requests]
            responses = [future.result(timeout=60) for future in futures]
            stats = server.worker_stats()
        # One response per message: the counter is the sum of what encoding
        # each response against its (known) request cloud lifts out.
        expected = sum(
            transport.encode_payload(
                {"responses": [response], "error": None},
                known=[request.cloud],
                force_inline=True,
            ).total_bytes
            for request, response in zip(requests, responses)
        )
        shipped = sum(s["response_bytes"] for s in stats)
        assert shipped == expected
        # The response-contract bound (tests/test_response_contract.py):
        # under a megabyte per frame, and here less than two raw clouds.
        per_frame = shipped / sum(s["frames_processed"] for s in stats)
        assert 0 < per_frame < 2 * requests[0].cloud.points.nbytes < 1_000_000

    def test_invalid_execution_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            FrameServer(make_session, execution="coroutine")


# ----------------------------------------------------------------------
# Shutdown idempotency (regression tests for the lifecycle rework)
# ----------------------------------------------------------------------
class TestShutdownIdempotency:
    def test_double_shutdown_returns_identical_snapshot(self):
        server = FrameServer(make_session, num_workers=1, name="idem").start()
        server.submit(make_request(0)).result(timeout=60)
        first = server.shutdown()
        second = server.shutdown()
        assert first["requests"] == second["requests"]
        assert second["requests"]["completed"] == 1

    def test_shutdown_without_start_is_terminal(self):
        server = FrameServer(make_session, num_workers=1, name="never")
        snapshot = server.shutdown()
        assert snapshot["requests"]["submitted"] == 0
        with pytest.raises(RuntimeError, match="restarted"):
            server.start()

    def test_exit_after_explicit_shutdown_is_harmless(self):
        with FrameServer(make_session, num_workers=1, name="exit") as server:
            future = server.submit(make_request(0))
            snapshot = server.shutdown()
            assert future.result(timeout=60) is not None
        assert server.shutdown()["requests"] == snapshot["requests"]

    def test_concurrent_shutdowns_converge(self):
        server = FrameServer(
            make_session, num_workers=2, max_wait_seconds=0.002, name="conc"
        ).start()
        futures = [server.submit(make_request(i)) for i in range(8)]
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(server.shutdown()))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for future in futures:
            assert future.result(timeout=60) is not None
        assert len(results) == 4
        for snapshot in results:
            assert snapshot["requests"]["completed"] == 8
            assert snapshot["requests"]["in_flight"] == 0

    def test_shutdown_after_worker_crash_still_drains(self):
        server = FrameServer(
            crashing_factory,
            num_workers=1,
            execution="process",
            max_batch_size=1,
            max_wait_seconds=0.001,
            name="crashdown",
            retry_policy=RetryPolicy(max_attempts=1),
        ).start()
        poison = server.submit(
            FrameRequest(
                cloud=sample_cad_shape(400, shape="box", seed=3),
                frame_id="poison",
            )
        )
        with pytest.raises(WorkerCrashed):
            poison.result(timeout=60)
        snapshot = server.shutdown()
        assert snapshot["requests"]["failed"] == 1
        assert snapshot["requests"]["in_flight"] == 0
        assert server.shutdown()["requests"] == snapshot["requests"]


# ----------------------------------------------------------------------
# Every child a process pool spawned is gone after shutdown
# ----------------------------------------------------------------------
def live_children(name):
    """Live child processes of the process pool named ``name``."""
    return [
        child.pid
        for child in multiprocessing.active_children()
        if child.name.startswith(f"{name}-proc-")
    ]


#: Starts a process server, serves one frame and runs what interpreter exit
#: runs: the pool's atexit hook, then multiprocessing's, which terminates
#: the children.  A collector taking that for crashes would respawn them
#: within one poll; the probe prints the live children half a second later.
EXIT_PROBE = """
import atexit, multiprocessing, os, time
from test_cluster import make_request, make_session
from repro.serving import FrameServer

server = FrameServer(
    make_session, num_workers=2, execution="process", name="exit"
).start()
server.submit(make_request(0)).result(timeout=60)
atexit._run_exitfuncs()
time.sleep(0.5)
print(" ".join(str(child.pid) for child in multiprocessing.active_children()))
os._exit(0)
"""


class TestChildReaping:
    def test_drained_shutdown_reaps_every_child(self):
        server = FrameServer(
            make_session, num_workers=2, execution="process", name="reap-drain"
        ).start()
        futures = [server.submit(make_request(i)) for i in range(4)]
        server.shutdown(drain=True)
        assert all(future.done() for future in futures)
        assert live_children("reap-drain") == []

    def test_cancelling_shutdown_reaps_every_child(self):
        server = FrameServer(
            make_session,
            num_workers=2,
            execution="process",
            max_wait_seconds=60.0,
            name="reap-cancel",
        ).start()
        futures = [server.submit(make_request(i)) for i in range(4)]
        server.shutdown(drain=False)
        assert all(future.done() for future in futures)
        assert live_children("reap-cancel") == []

    def test_timed_out_shutdown_terminates_a_child_that_does_not_exit(self):
        server = FrameServer(
            make_session,
            num_workers=1,
            execution="process",
            name="reap-timeout",
            faults=FaultPlan().slow_worker(0, delay_seconds=60.0),
        ).start()
        future = server.submit(make_request(0))
        started = time.monotonic()
        server.shutdown(timeout=0.2)
        assert time.monotonic() - started < 10.0
        assert live_children("reap-timeout") == []
        # The terminated batch fails typed instead of hanging its caller,
        # and nothing respawns behind the shutdown.
        assert isinstance(future.exception(timeout=10.0), WorkerCrashed)
        time.sleep(0.2)
        assert live_children("reap-timeout") == []

    def test_shutdown_after_a_kill_fault_reaps_every_generation(self):
        server = FrameServer(
            make_session,
            num_workers=2,
            execution="process",
            name="reap-kill",
            faults=FaultPlan(seed=0).kill_worker(0, after_batches=0),
            retry_policy=RetryPolicy(base_delay_seconds=0.01, seed=0),
        ).start()
        futures = [server.submit(make_request(i)) for i in range(4)]
        assert all(f.result(timeout=60) is not None for f in futures)
        server.shutdown()
        assert server.pool.respawns >= 1
        assert live_children("reap-kill") == []

    def test_interpreter_exit_respawns_no_orphan(self, tmp_path):
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        pids, log = tmp_path / "pids", tmp_path / "log"
        # Files, not pipes: an orphan holding a pipe would stall the read.
        with open(pids, "w") as out, open(log, "w") as err:
            result = subprocess.run(
                [sys.executable, "-c", EXIT_PROBE],
                env=dict(
                    os.environ,
                    PYTHONPATH=os.pathsep.join([src_dir, tests_dir]),
                ),
                stdout=out,
                stderr=err,
                timeout=120,
            )
        orphans = [int(pid) for pid in pids.read_text().split()]
        for pid in orphans:  # never leave one behind, even on failure
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert result.returncode == 0, log.read_text()
        assert orphans == []
