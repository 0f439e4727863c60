"""Leaf/voxel bucketing and ragged gathers without Python loops.

An octree leaf level (or a flat voxel grid) is "points grouped by m-code".
Before this layer, the builders looped over ``np.unique`` slices to fill a
``dict[code, indices]``; the primitives here keep everything in four flat
arrays (stable sort order, unique codes, bucket starts, bucket counts).
The order comes from one ``np.sort`` of packed ``(code, index)`` keys
(:func:`sort_codes`), bucket starts from a neighbour-inequality mask over
the sorted codes, and multi-bucket gathers are one vectorised indexing
expression.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def sort_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable ascending order of non-negative integer codes, and the codes.

    Returns ``(order, sorted_codes)`` along the last axis, so a ``(B, N)``
    stack sorts row by row.  ``order`` equals ``np.argsort(codes,
    kind="stable")``: each code is packed with its index as ``(code << b) |
    index`` with ``b = max(1, (N - 1).bit_length())``, and those keys are
    unique with ties resolving by index, so a plain ``np.sort`` of them --
    on any NumPy, whatever its sort algorithm -- yields the stable
    permutation.  ``& mask`` and ``>> b`` unpack it.  Codes that would not
    fit 63 bits once packed (or negative or non-integer codes) fall back to
    the stable argsort.
    """
    codes = np.asarray(codes)
    size = codes.shape[-1]
    index_bits = max(1, (size - 1).bit_length())
    if (
        codes.size == 0
        or not np.issubdtype(codes.dtype, np.integer)
        or int(codes.min()) < 0
        or int(codes.max()).bit_length() + index_bits > 63
    ):
        order = np.argsort(codes, axis=-1, kind="stable")
        return order, np.take_along_axis(codes, order, axis=-1)
    keys = codes.astype(np.int64) << index_bits
    keys |= np.arange(size, dtype=np.int64)
    keys.sort(axis=-1)
    order = (keys & ((1 << index_bits) - 1)).astype(np.intp, copy=False)
    keys >>= index_bits
    return order, keys.astype(codes.dtype, copy=False)


def _run_starts_mask(sorted_values: np.ndarray) -> np.ndarray:
    """True at the first element of every run of equal sorted values."""
    keep = np.empty(sorted_values.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=keep[1:])
    return keep


def bucket_sorted(
    sorted_codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(unique_codes, starts, counts)`` of ascending-sorted 1-D codes.

    The runs of equal codes, found with the neighbour-inequality mask
    instead of ``np.unique(return_index=True)``, which would sort the
    already-sorted codes again.
    """
    sorted_codes = np.asarray(sorted_codes)
    starts = np.flatnonzero(_run_starts_mask(sorted_codes))
    counts = np.diff(starts, append=sorted_codes.shape[0])
    return (
        sorted_codes[starts].astype(np.int64, copy=False),
        starts.astype(np.intp, copy=False),
        counts.astype(np.intp, copy=False),
    )


def bucketize_codes(
    codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group element indices by code.

    Returns ``(order, unique_codes, starts, counts)`` where ``order`` is the
    stable ascending-code permutation of ``arange(len(codes))`` and bucket
    ``i`` (code ``unique_codes[i]``) holds ``order[starts[i] : starts[i] +
    counts[i]]``.  Within a bucket, original indices appear in ascending
    order (the stable-sort guarantee the pre-kernel ``dict`` builders relied
    on).
    """
    order, sorted_codes = sort_codes(codes)
    return (order, *bucket_sorted(sorted_codes))


def lookup_sorted(
    sorted_codes: np.ndarray, queries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of ``queries`` in ``sorted_codes`` plus a found mask.

    Positions of missing queries are clipped in-range (the mask tells the
    caller to ignore them), so the result is always safe to index with.
    """
    queries = np.asarray(queries)
    positions = np.searchsorted(sorted_codes, queries)
    positions = np.minimum(positions, max(0, sorted_codes.shape[0] - 1))
    if sorted_codes.shape[0] == 0:
        return positions, np.zeros(queries.shape, dtype=bool)
    found = sorted_codes[positions] == queries
    return positions, found


def unique_sorted(sorted_values: np.ndarray) -> np.ndarray:
    """Unique values of an already-sorted array, without re-sorting.

    ``np.unique`` sorts unconditionally; when the input is known sorted
    (octree per-level codes, bucketed voxel codes) a neighbour-inequality
    mask gets the same result severalfold faster.
    """
    sorted_values = np.asarray(sorted_values)
    if sorted_values.shape[0] == 0:
        return sorted_values
    return sorted_values[_run_starts_mask(sorted_values)]


def isin_sorted(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership mask of ``queries`` in an ascending-sorted array.

    The ``searchsorted`` replacement for the per-call ``set`` the scalar
    ``filter_occupied`` built: O(Q log N) with no Python-object hashing.
    """
    _, found = lookup_sorted(np.asarray(sorted_values), queries)
    return found


def gather_ragged(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[starts[i] : starts[i] + counts[i]]`` for all i.

    Returns ``(flat_values, segment_ids)``; ``segment_ids[j]`` is the bucket
    number the j-th output element came from.  This is the vectorised
    replacement for ``np.concatenate([buckets[c] for c in codes])``.  The
    flat indices are one ``cumsum`` of unit steps that jump at each
    non-empty bucket's first element, and the segment ids one ``cumsum``
    of bucket-start marks.
    """
    starts = np.asarray(starts, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.intp)
    kept = np.flatnonzero(counts)
    if not kept.shape[0]:
        return (
            np.zeros(0, dtype=np.asarray(values).dtype),
            np.zeros(0, dtype=np.intp),
        )
    starts, counts = starts[kept], counts[kept]
    ends = np.cumsum(counts)
    first = ends[:-1]
    step = np.ones(int(ends[-1]), dtype=np.intp)
    step[0] = starts[0]
    step[first] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    segment = np.zeros_like(step)
    segment[first] = 1
    return (
        np.asarray(values)[np.cumsum(step, out=step)],
        kept[np.cumsum(segment, out=segment)],
    )
