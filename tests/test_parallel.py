"""Tests for repro.parallel: ordered fork/join and batch determinism.

The executor's contract is that :func:`ordered_map` over a pure per-item
function is bit-identical to the serial list comprehension for every
worker count; the engine tests assert that contract end to end on
``PreprocessingEngine.process_batch`` / ``Session.run_batch``.
"""

import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.core.engine import PreprocessingEngine
from repro.core.framebatch import FrameBatch
from repro.geometry.pointcloud import PointCloud
from repro.parallel import (
    DEFAULT_WORKERS_ENV,
    ordered_map,
    resolve_workers,
    shutdown_pools,
)
from repro.session import FrameRequest, Session


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_blank_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, "  ")
        assert resolve_workers() == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestOrderedMap:
    def test_matches_serial_loop(self):
        items = list(range(23))
        expected = [x * x for x in items]
        for workers in (1, 2, 4):
            assert ordered_map(lambda x: x * x, items, workers) == expected

    def test_order_preserved_under_skewed_latency(self):
        """Items finishing out of order still join in submission order."""
        def slow_then_fast(x):
            time.sleep(0.02 if x == 0 else 0.0)
            return x

        items = list(range(8))
        assert ordered_map(slow_then_fast, items, 4) == items

    def test_actually_uses_threads(self):
        seen = set()

        def record(x):
            seen.add(threading.current_thread().name)
            time.sleep(0.01)
            return x

        ordered_map(record, range(8), 4)
        assert any(name.startswith("repro-batch-") for name in seen)

    def test_serial_path_stays_on_caller_thread(self):
        names = ordered_map(
            lambda _: threading.current_thread().name, range(3), 1
        )
        assert set(names) == {threading.current_thread().name}

    def test_first_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("item 2")
            return x

        with pytest.raises(RuntimeError, match="item 2"):
            ordered_map(boom, range(5), 4)

    def test_empty_and_single_item(self):
        assert ordered_map(lambda x: x, [], 4) == []
        assert ordered_map(lambda x: x + 1, [41], 4) == [42]

    def test_shutdown_pools_allows_reuse(self):
        assert ordered_map(lambda x: x, range(4), 2) == list(range(4))
        shutdown_pools()
        assert ordered_map(lambda x: x, range(4), 2) == list(range(4))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_fresh_pools(self):
        """A child forked after the parent warmed a pool must not inherit
        the husk (its threads do not exist in the child; submitting to it
        deadlocks).  This is exactly the process-serving shape: workers
        are forked from a parent that already ran batches."""
        ordered_map(lambda x: x, range(8), 4)  # warm the parent's pool
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()

        def child(q):
            q.put(ordered_map(lambda x: x * 2, range(6), 4))

        proc = ctx.Process(target=child, args=(queue,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0, "forked child hung or crashed"
        assert queue.get() == [x * 2 for x in range(6)]


def _clouds(count, points, seed=100):
    return [
        PointCloud(
            points=np.random.default_rng(seed + i).random((points, 3))
        )
        for i in range(count)
    ]


def _config():
    return HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=64, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=16, neighbors_per_centroid=8, seed=0
        ),
    )


def _preprocess_signature(results):
    return [
        (
            item.sampling.indices.tolist(),
            item.octree_table.codes.tolist(),
            item.onchip_megabits,
            item.breakdown.total_seconds(),
        )
        for item in results
    ]


class TestBatchDeterminism:
    def test_process_batch_identical_for_any_worker_count(self):
        batch = FrameBatch.from_clouds(_clouds(6, 800))
        signatures = []
        for workers in (1, 2, 4):
            engine = PreprocessingEngine(
                config=_config(), max_workers=workers
            )
            signatures.append(
                _preprocess_signature(engine.process_batch(batch))
            )
        assert signatures[1] == signatures[0]
        assert signatures[2] == signatures[0]

    def test_run_batch_identical_for_any_worker_count(self):
        frames = [
            FrameRequest.coerce(cloud, index=i)
            for i, cloud in enumerate(_clouds(5, 600, seed=40))
        ]
        base = None
        for workers in (None, 1, 2, 4):
            session = Session(
                config=_config(),
                task="classification",
                preprocess_workers=workers,
                response_cache_size=0,
            )
            batch = session.run_batch(frames)
            signature = [
                (
                    response.result.frame_id,
                    response.result.preprocessing.sampling.indices.tolist(),
                    response.result.total_seconds(),
                )
                for response in batch.responses
            ]
            if base is None:
                base = signature
            assert signature == base

    def test_session_with_workers_stays_picklable(self):
        """Engines hold only the integer knob, never a live pool, so the
        process-sharded serving path can still ship sessions by value."""
        session = Session(
            config=_config(), task="classification", preprocess_workers=4
        )
        clone = pickle.loads(pickle.dumps(session))
        assert clone.preprocess_workers == 4

    def test_stats_reports_worker_knob(self):
        session = Session(
            config=_config(), task="classification", preprocess_workers=2
        )
        assert session.stats()["preprocess_workers"] == 2


class TestBlasShare:
    """``limit_blas_threads``: the per-worker BLAS core share."""

    @pytest.fixture
    def no_threadpoolctl(self, monkeypatch):
        import sys

        monkeypatch.setitem(sys.modules, "threadpoolctl", None)

    def test_available_cores_is_positive(self):
        from repro.parallel import available_cores

        assert 1 <= available_cores() <= (os.cpu_count() or 1)

    def test_returns_what_it_applied(self, monkeypatch, no_threadpoolctl):
        from repro.parallel import blas

        import types

        calls = []
        fake = types.SimpleNamespace(
            openblas_set_num_threads=lambda limit: calls.append(limit)
        )
        monkeypatch.setattr(blas, "_mapped_blas_libraries", lambda: ["libfake.so"])
        monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: fake)
        assert blas.limit_blas_threads(3) == 3
        assert blas.limit_blas_threads(0) == 1  # never below one thread
        assert calls == [3, 1]

    def test_noop_when_no_library_matches(self, monkeypatch, no_threadpoolctl):
        from repro.parallel import blas

        monkeypatch.setattr(blas, "_mapped_blas_libraries", lambda: [])
        assert blas.limit_blas_threads(1) is None

        class Bare:  # mapped, but exports no known setter
            pass

        monkeypatch.setattr(blas, "_mapped_blas_libraries", lambda: ["libx.so"])
        monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: Bare())
        assert blas.limit_blas_threads(1) is None

    def test_forked_child_caps_the_real_library_and_still_multiplies(self):
        import multiprocessing

        from repro.parallel import blas

        def child(conn):
            applied = blas.limit_blas_threads(1)
            a = np.arange(64.0 * 64).reshape(64, 64)
            conn.send((applied, float((a @ a).sum())))
            conn.close()

        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(target=child, args=(sender,))
        process.start()
        applied, total = receiver.recv()
        process.join(30)
        a = np.arange(64.0 * 64).reshape(64, 64)
        assert total == float((a @ a).sum())
        # NumPy wheels always map an OpenBLAS this helper can steer.
        assert applied == 1 or not blas._mapped_blas_libraries()
