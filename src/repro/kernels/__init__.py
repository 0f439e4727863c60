"""Vectorized NumPy primitive layer for the sampling/gathering hot paths.

The paper's thesis is that data structuring, sampling, and gathering dominate
end-to-end point-cloud inference latency; this package makes the functional
reproductions of exactly those stages fast.  Every primitive here is a pure
array transformation with an **exact-equivalence contract**: for the same
inputs it must produce bit-identical results (indices, codes, counters) to
the scalar implementations retained in :mod:`repro.kernels.reference`, which
are the frozen pre-kernel-layer code paths.  ``benchmarks/run_all.py`` times
the two sides against each other and records the speedups in
``BENCH_kernels.json``.

Modules
-------
``batching``
    Batch-native plumbing: frame stacking/offsets for the ``(B, N, ...)``
    execution path.
``chunking``
    The shared memory-budget-derived chunk-size helper used by every kernel
    that works through an ``(M, N)`` pairwise block.
``morton``
    Batched Morton (m-code) encoding via bit-spreading magic constants, and
    XOR+popcount Hamming distance over int64 code arrays.
``bucketing``
    Packed-key code sorting (a plain ``np.sort`` that equals the stable
    argsort), run-mask voxel bucketing and ragged gathers (concatenating
    many variable-length buckets without a Python loop).
``distance``
    Streamed (per-coordinate) pairwise squared distances, grouped top-k
    selection (``argpartition``, lowest-index ties, a stable sort of the k
    survivors) and the blocked three-nearest search of feature propagation
    (``argmin`` passes); both list ascending ``(sq_dist, index)``.
``reference``
    The retained scalar reference implementations (not imported eagerly --
    it depends on the higher-level geometry/octree modules).
"""

from repro.kernels.batching import frame_offsets, stack_frames
from repro.kernels.chunking import (
    DEFAULT_CHUNK_BUDGET_BYTES,
    distance_chunk_rows,
    rows_per_chunk,
)
from repro.kernels.morton import (
    encode_cells,
    encode_point_scalar,
    hamming_codes,
    point_encoder,
    popcount64,
    spread_axis,
)
from repro.kernels.bucketing import (
    bucket_sorted,
    bucketize_codes,
    gather_ragged,
    sort_codes,
    unique_sorted,
)
from repro.kernels.distance import (
    grouped_topk,
    iter_distance_chunks,
    pairwise_sq_dists,
    three_nearest,
)

__all__ = [
    "frame_offsets",
    "stack_frames",
    "DEFAULT_CHUNK_BUDGET_BYTES",
    "distance_chunk_rows",
    "rows_per_chunk",
    "encode_cells",
    "encode_point_scalar",
    "hamming_codes",
    "point_encoder",
    "popcount64",
    "spread_axis",
    "bucket_sorted",
    "bucketize_codes",
    "gather_ragged",
    "sort_codes",
    "unique_sorted",
    "grouped_topk",
    "iter_distance_chunks",
    "pairwise_sq_dists",
    "three_nearest",
]
