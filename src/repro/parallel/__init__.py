"""Deterministic intra-batch stage parallelism.

The serving layer already spreads *requests* over workers; this package
spreads the frames of one :class:`~repro.core.batch.FrameBatch` over cores
*inside* a single engine stage (octree table + down-sampling, workload
extraction + pricing).  The contract is the one the serving worker pool
honors: results are joined in submission order, so a stage that is pure
per frame produces output bit-identical to the serial loop for any worker
count.  :mod:`repro.parallel.blas` is the other half of the core budget:
it caps the BLAS pool of a forked serving worker to its share of cores.
"""

from repro.parallel.blas import available_cores, limit_blas_threads
from repro.parallel.executor import (
    DEFAULT_WORKERS_ENV,
    ordered_map,
    resolve_workers,
    shutdown_pools,
)

__all__ = [
    "DEFAULT_WORKERS_ENV",
    "available_cores",
    "limit_blas_threads",
    "ordered_map",
    "resolve_workers",
    "shutdown_pools",
]
