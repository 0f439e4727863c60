"""Memory-budget-derived chunk sizing.

The brute-force gatherers compute an ``(M, N)`` distance block per chunk of
centroids: two ``(rows, N)`` buffers (the running sum and one coordinate's
difference), never an ``(rows, N, 3)`` difference block.  Before this layer
existed, ``knn.py`` and ``ballquery.py`` each hardcoded ``chunk = 256``,
which at ``N = 100k`` points meant a ~600 MB temporary.  Every chunked kernel
now derives its block size from one shared budget constant so the working
set stays cache-friendly and there is a single knob to turn.
"""

from __future__ import annotations

from typing import Optional

#: Target size of the largest temporary a chunked kernel may materialise.
#: 64 MiB keeps the distance buffers comfortably inside the last-level cache
#: plus a small spill, while leaving each NumPy call enough rows to amortise
#: dispatch overhead.
DEFAULT_CHUNK_BUDGET_BYTES = 64 * 1024 * 1024


def rows_per_chunk(
    bytes_per_row: int,
    budget_bytes: Optional[int] = None,
    minimum: int = 1,
    maximum: Optional[int] = None,
) -> int:
    """Number of rows that fit ``budget_bytes`` at ``bytes_per_row`` each."""
    if bytes_per_row <= 0:
        raise ValueError("bytes_per_row must be positive")
    if minimum < 1:
        raise ValueError("minimum must be >= 1")
    budget = DEFAULT_CHUNK_BUDGET_BYTES if budget_bytes is None else budget_bytes
    rows = max(minimum, budget // bytes_per_row)
    if maximum is not None:
        rows = min(rows, max(minimum, maximum))
    return int(rows)


def distance_chunk_rows(
    num_points: int,
    itemsize: int = 8,
    budget_bytes: Optional[int] = None,
) -> int:
    """Query rows per chunk of a streamed ``(rows, num_points)`` distance block.

    The budget covers the two buffers :func:`repro.kernels.pairwise_sq_dists`
    works in: the distance block itself and its per-coordinate scratch.
    """
    if num_points <= 0:
        raise ValueError("num_points must be positive")
    bytes_per_row = num_points * itemsize * 2
    return rows_per_chunk(bytes_per_row, budget_bytes=budget_bytes)
