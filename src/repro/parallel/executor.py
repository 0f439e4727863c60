"""Ordered thread-based fork/join over the items of one batch.

Threads, not processes: the preprocessing hot path (m-code encode, sorts,
gathers, blocked MLPs) spends its time inside NumPy kernels that release
the GIL, so threads put real cores behind a batch without pickling frames
across process boundaries.  Pools are cached at module level, keyed by
worker count -- engines hold only the integer knob, which keeps them (and
the Session above them) picklable for process serving.

Determinism contract
--------------------
:func:`ordered_map` joins results strictly in submission order, so for a
``fn`` that is pure per item (no order-dependent shared mutation, fresh
RNG per call) the output list is bit-identical to ``[fn(x) for x in
items]`` for every worker count, including 1 (which short-circuits to the
plain loop, no pool at all).  Exceptions propagate like the serial loop's:
the first failing item in submission order raises; later items may still
have run, but their effects are invisible to a pure ``fn``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from threading import Lock
from typing import Callable, Dict, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Environment fallback consulted when no explicit worker count is given.
DEFAULT_WORKERS_ENV = "REPRO_PREPROCESS_WORKERS"

_pools: Dict[int, ThreadPoolExecutor] = {}
_pools_lock = Lock()


def _reset_after_fork() -> None:
    """Drop inherited pools in a forked child.

    A forked process inherits the ``_pools`` dict but none of the pool
    threads, so submitting to an inherited executor would block forever
    (its worker set looks fully populated, yet nothing drains the queue).
    The husks are discarded without ``shutdown()`` -- their threads do not
    exist here -- and the lock is re-created in case the fork happened
    while another thread held it.
    """
    global _pools_lock
    _pools.clear()
    _pools_lock = Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - always on posix
    os.register_at_fork(after_in_child=_reset_after_fork)


def resolve_workers(
    explicit: Optional[int] = None,
    env_var: str = DEFAULT_WORKERS_ENV,
) -> int:
    """Resolve a worker count: explicit knob > environment > 1 (serial)."""
    if explicit is None:
        raw = os.environ.get(env_var, "").strip()
        if not raw:
            return 1
        explicit = int(raw)
    workers = int(explicit)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _pool(workers: int) -> ThreadPoolExecutor:
    pool = _pools.get(workers)
    if pool is None:
        with _pools_lock:
            pool = _pools.get(workers)
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"repro-batch-{workers}",
                )
                _pools[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Drain and drop every cached pool (test isolation / clean exit)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def ordered_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]`` over a thread pool, joined in order.

    ``max_workers=None`` falls back to ``REPRO_PREPROCESS_WORKERS`` and
    then to 1.  A resolved count of 1 (or fewer than two items) runs the
    plain serial loop on the calling thread.
    """
    sequence = list(items)
    workers = resolve_workers(max_workers)
    if workers == 1 or len(sequence) <= 1:
        return [fn(item) for item in sequence]
    pool = _pool(min(workers, len(sequence)))
    futures = [pool.submit(fn, item) for item in sequence]
    return [future.result() for future in futures]
