"""Tests for repro.parallel: the BLAS thread cap of a forked serving worker.

:func:`~repro.parallel.limit_blas_threads` sizes a worker's BLAS pool to
its share of the cores; :func:`~repro.parallel.available_cores` is the
affinity-aware core count that share is taken from.
"""

import os

import numpy as np
import pytest


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
