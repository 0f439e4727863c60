"""Pairwise squared distances and grouped top-k selection.

All distance work in the library is done on **squared** Euclidean distances;
``sqrt`` is monotone, so rankings, top-k sets, and radius tests (against a
squared radius) are unchanged while every hot loop drops one transcendental
per element.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.kernels.chunking import distance_chunk_rows


#: Bytes of distance buffers one :func:`three_nearest` block works in (the
#: block plus its scratch): small enough that the block is still in cache
#: when the three ``argmin`` passes read it back, large enough to amortise
#: NumPy dispatch.  On 2048 dense by 512 coarse LiDAR points (2-vCPU Xeon,
#: 2 MiB L2 per core) the search's median was 7.7-7.9 ms from 512 KiB to
#: 1 MiB (128-row blocks), 9.2 ms at 256 KiB and 8.5-11 ms from 1.5 to
#: 4 MiB.
THREE_NEAREST_BLOCK_BYTES = 1024 * 1024


def pairwise_sq_dists(
    queries: np.ndarray,
    points: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(M, N)`` squared distances between query rows and point rows.

    Accumulated one coordinate at a time as ``(dx*dx + dy*dy) + dz*dz`` in
    two ``(M, N)`` buffers, so no ``(M, N, 3)`` difference block exists.
    That association is the one ``((q - p)**2).sum(axis=-1)`` uses, so every
    last bit of the result matches the scalar reference paths and
    :func:`repro.kernels.reference.pairwise_sq_dists_dense`.  ``out`` and
    ``scratch`` are optional ``(M, N)`` buffers of the result dtype to reuse
    across calls; the result is written to (and returned as) ``out``.
    """
    shape = (queries.shape[0], points.shape[0])
    if out is None:
        out = np.empty(shape, dtype=np.result_type(queries, points))
    if scratch is None:
        scratch = np.empty_like(out)
    # Contiguous coordinate rows: the (N, 3) columns are re-read per query row.
    px, py, pz = np.ascontiguousarray(points.T)
    np.subtract(queries[:, 0:1], px, out=out)
    np.multiply(out, out, out=out)
    for axis, coordinate in ((1, py), (2, pz)):
        np.subtract(queries[:, axis : axis + 1], coordinate, out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(out, scratch, out=out)
    return out


def iter_distance_chunks(
    queries: np.ndarray,
    points: np.ndarray,
    budget_bytes: Optional[int] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(row_start, sq_dist_block)`` over memory-budgeted query chunks.

    Every block is a view of one reused buffer pair: consume (or copy) it
    before advancing the iterator.
    """
    chunk = min(
        max(1, queries.shape[0]),
        distance_chunk_rows(points.shape[0], budget_bytes=budget_bytes),
    )
    block = np.empty((chunk, points.shape[0]), dtype=np.result_type(queries, points))
    scratch = np.empty_like(block)
    for start in range(0, queries.shape[0], chunk):
        rows = queries[start : start + chunk]
        size = rows.shape[0]
        yield start, pairwise_sq_dists(rows, points, block[:size], scratch[:size])


def three_nearest(
    dense: np.ndarray, coarse: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The (up to) three nearest ``coarse`` rows of every ``dense`` row.

    Returns ``(indices, sq_dists)`` of shape ``(N, min(3, M))``, each row
    ascending by ``(sq_dist, index)`` -- exactly the prefix of the stable
    sort :func:`repro.kernels.reference.three_nearest_dense` takes of the
    full ``(N, M)`` matrix, but walked in cache-sized row blocks so that
    matrix never exists.  Each block is read by ``k`` passes of ``argmin``
    (the first minimum, so a tie goes to the lower index), each pass
    overwriting its picks with ``+inf``.
    """
    k = min(3, coarse.shape[0])
    indices = np.empty((dense.shape[0], k), dtype=np.intp)
    sq_dists = np.empty((dense.shape[0], k), dtype=np.result_type(dense, coarse))
    for start, dist in iter_distance_chunks(dense, coarse, THREE_NEAREST_BLOCK_BYTES):
        stop = start + dist.shape[0]
        rows = np.arange(dist.shape[0])
        for j in range(k):
            nearest = dist.argmin(axis=1)
            indices[start:stop, j] = nearest
            sq_dists[start:stop, j] = dist[rows, nearest]
            dist[rows, nearest] = np.inf
        # Squared distances overflow to +inf from coordinates of ~1e154.
        # Once a row's remaining minimum is +inf, argmin returns its first
        # +inf entry, which may be one already picked: such rows (their last
        # pick is +inf) take the stable sort of their recomputed distances.
        overflowed = start + np.flatnonzero(np.isinf(sq_dists[start:stop, -1]))
        if overflowed.shape[0]:
            exact = pairwise_sq_dists(dense[overflowed], coarse)
            nearest = np.argsort(exact, axis=1, kind="stable")[:, :k]
            indices[overflowed] = nearest
            sq_dists[overflowed] = np.take_along_axis(exact, nearest, axis=1)
    return indices, sq_dists


def grouped_topk(sq_dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries per row, ascending by ``(value, index)``.

    Exactly ``np.argsort(sq_dists, axis=1, kind="stable")[:, :k]``, without
    sorting whole rows.  ``np.argpartition`` at ``k`` puts each row's k
    smallest entries first and its (k+1)-th smallest at ``k``; when that
    one is larger than the rest, the k entries are the row's set.  Rows
    where it ties the k-th value (the set is then the partition's choice)
    take, of the entries equal to the k-th value, the lowest-index ones (a
    ``cumsum`` over them).  The k survivors, in index order, are then
    sorted stably by value.
    """
    if k >= sq_dists.shape[1]:
        return np.argsort(sq_dists, axis=1, kind="stable")[:, :k]
    picked = np.argpartition(sq_dists, k, axis=1)[:, : k + 1]
    values = np.take_along_axis(sq_dists, picked, axis=1)
    kth = values[:, :k].max(axis=1, keepdims=True)
    columns = np.sort(picked[:, :k], axis=1)
    tied = np.flatnonzero(values[:, k] == kth[:, 0])
    if tied.shape[0]:
        rows, kth = sq_dists[tied], kth[tied]
        below = rows < kth
        ties = rows == kth
        places = k - np.count_nonzero(below, axis=1)[:, None]
        keep = below | (ties & (np.cumsum(ties, axis=1) <= places))
        columns[tied] = np.nonzero(keep)[1].reshape(tied.shape[0], k)
    values = np.take_along_axis(sq_dists, columns, axis=1)
    return np.take_along_axis(
        columns, np.argsort(values, axis=1, kind="stable"), axis=1
    )
