"""Chebyshev offset stencils and batched same-level neighbor codes.

The octree neighbor helpers (:mod:`repro.octree.neighbors`) expand a voxel
neighbourhood shell by shell.  The offset stencils live here -- in the
kernel layer -- as one cached enumeration, so neighbor lookup runs
array-wide: one ``(M, S)`` encode over ``M`` centre voxels and an
``S``-entry stencil instead of ``M`` Python triple loops.  (VEG addresses
whole Chebyshev cubes through the voxel grid's row-major prefix counts
instead, :meth:`repro.geometry.voxelgrid.VoxelGrid.cube_runs`.)

Enumeration order matches the scalar triple loop of the pre-kernel code
(``dx`` outermost, then ``dy``, then ``dz``), which is what the equivalence
contract against :mod:`repro.kernels.reference` relies on.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.kernels.morton import MAX_DEPTH, decode_cells, spread_axis

#: Cache of Chebyshev shell offset stencils: radius -> (S, 3) int64 array in
#: the (dx, dy, dz) lexicographic enumeration order of the scalar reference.
#: Only small radii are retained; the stencil size is O(r^2), so an
#: unbounded cache over a deep expansion would approach the full-cube O(R^3)
#: footprint.
_SHELL_OFFSET_CACHE: Dict[int, np.ndarray] = {}
_SHELL_OFFSET_CACHE_MAX_RADIUS = 32

#: Cache of the L1-filtered (face-adjacency) shells used by the
#: ``include_diagonal=False`` neighbor queries.
_FACE_SHELL_OFFSET_CACHE: Dict[int, np.ndarray] = {}

#: ``axis`` argument of :func:`spread_axis` for an axis-major ``(3, M, V)`` table.
_AXES = np.arange(3)[:, None, None]


def _shell_ring_2d(radius: int) -> np.ndarray:
    """The 2-D Chebyshev ring at ``radius`` in (dy, dz) lexicographic order."""
    span = np.arange(-radius, radius + 1, dtype=np.int64)
    interior = span[1:-1]
    blocks = [
        np.stack([np.full(span.shape[0], -radius, dtype=np.int64), span], axis=1)
    ]
    if interior.size:
        edges = np.empty((interior.shape[0] * 2, 2), dtype=np.int64)
        edges[0::2, 0] = interior
        edges[0::2, 1] = -radius
        edges[1::2, 0] = interior
        edges[1::2, 1] = radius
        blocks.append(edges)
    blocks.append(
        np.stack([np.full(span.shape[0], radius, dtype=np.int64), span], axis=1)
    )
    return np.concatenate(blocks)


def shell_offsets(radius: int) -> np.ndarray:
    """Integer offsets of the Chebyshev shell at ``radius``, stencil-ordered.

    ``radius = 0`` is the single centre offset; ``radius = 1`` the 26
    touching voxels, enumerated in the same nested ``dx, dy, dz`` order as
    the scalar triple loop so downstream gathers see candidates in an
    identical sequence.  Only the shell itself is materialised (O(r^2)
    memory), never the enclosing cube.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cached = _SHELL_OFFSET_CACHE.get(radius)
    if cached is not None:
        return cached
    if radius == 0:
        offsets = np.zeros((1, 3), dtype=np.int64)
    else:
        span = np.arange(-radius, radius + 1, dtype=np.int64)
        face = np.stack(
            np.meshgrid(span, span, indexing="ij"), axis=-1
        ).reshape(-1, 2)
        ring = _shell_ring_2d(radius)
        blocks = []
        for dx in span:
            plane = face if abs(int(dx)) == radius else ring
            block = np.empty((plane.shape[0], 3), dtype=np.int64)
            block[:, 0] = dx
            block[:, 1:] = plane
            blocks.append(block)
        offsets = np.concatenate(blocks)
    # The stencil is shared process-wide; freeze it so no caller can corrupt
    # the cached enumeration order.
    offsets.setflags(write=False)
    if radius <= _SHELL_OFFSET_CACHE_MAX_RADIUS:
        _SHELL_OFFSET_CACHE[radius] = offsets
    return offsets


def face_shell_offsets(radius: int) -> np.ndarray:
    """The shell offsets whose L1 norm equals ``radius`` (face adjacency).

    This is the ``include_diagonal=False`` subset of :func:`shell_offsets`,
    in the same enumeration order.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cached = _FACE_SHELL_OFFSET_CACHE.get(radius)
    if cached is not None:
        return cached
    full = shell_offsets(radius)
    offsets = full[np.abs(full).sum(axis=1) == radius]
    offsets.setflags(write=False)
    if radius <= _SHELL_OFFSET_CACHE_MAX_RADIUS:
        _FACE_SHELL_OFFSET_CACHE[radius] = offsets
    return offsets


def cube_offsets(radius: int) -> np.ndarray:
    """All offsets with Chebyshev norm <= ``radius`` (shells 0..radius)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return np.concatenate([shell_offsets(r) for r in range(radius + 1)])


def stencil_codes(
    cells: np.ndarray, offsets: np.ndarray, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Same-level m-codes of ``cells + offsets`` for a batch of centres.

    Morton codes are separable per axis, so the ``M * S`` stencil entries
    are never encoded one by one: each axis gets an ``(M, span)`` table of
    the clipped, spread coordinates over the offsets' value range (plus its
    in-bounds mask), and an entry's code is the OR of three table lookups.
    That spreads ``3 * M * (2r + 1)`` values for a radius-``r`` shell instead
    of ``3 * M * S`` with ``S ~ 24 r^2``; the result is bit-identical to
    :func:`repro.kernels.reference.stencil_codes_dense`.

    Parameters
    ----------
    cells:
        ``(M, 3)`` integer grid cells of the centres.
    offsets:
        ``(S, 3)`` integer offset stencil.
    depth:
        Grid depth (``2**depth`` cells per axis).

    Returns
    -------
    ``(codes, in_bounds)`` of shape ``(M, S)``: the m-code of every stencil
    entry (out-of-grid entries carry the code of the cell they clip to) and
    the mask of entries that fall inside the grid.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}]; got {depth}")
    cells = np.asarray(cells, dtype=np.int64)
    offsets = np.asarray(offsets)
    shape = (cells.shape[0], offsets.shape[0])
    if 0 in shape:
        return np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool)
    resolution = 1 << depth
    # Axis-major (3, M, span) tables: every centre coordinate shifted by
    # every offset value low..high; ``columns`` locates each stencil entry
    # in its axis's table.
    low, high = int(offsets.min()), int(offsets.max())
    columns = np.ascontiguousarray((offsets - low).T, dtype=np.intp)
    coords = cells.T[:, :, None] + np.arange(low, high + 1, dtype=np.int64)
    valid = (coords >= 0) & (coords < resolution)
    # Clip so the encoder never sees out-of-range cells; the mask drops the
    # clipped entries afterwards.
    table = spread_axis(np.clip(coords, 0, resolution - 1), _AXES)
    codes = np.take(table[0], columns[0], axis=1)
    in_bounds = np.take(valid[0], columns[0], axis=1)
    for axis in (1, 2):
        codes |= np.take(table[axis], columns[axis], axis=1)
        in_bounds &= np.take(valid[axis], columns[axis], axis=1)
    return codes.view(np.int64), in_bounds


def shell_codes_batch(
    codes: np.ndarray, depth: int, radius: int, include_diagonal: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Chebyshev-shell m-codes around a batch of centre codes.

    Returns ``(shell_codes, in_bounds)`` of shape ``(M, S)`` in stencil
    (scalar triple-loop) order; ``include_diagonal=False`` restricts the
    stencil to the face-adjacent (L1 == radius) offsets.
    """
    offsets = (
        shell_offsets(radius) if include_diagonal else face_shell_offsets(radius)
    )
    cells = decode_cells(np.asarray(codes, dtype=np.int64), depth)
    return stencil_codes(cells, offsets, depth)


def chebyshev_codes(
    codes_a: np.ndarray, codes_b: np.ndarray, depth: int
) -> np.ndarray:
    """Elementwise Chebyshev (shell) distance between two code arrays."""
    cells_a = decode_cells(np.asarray(codes_a, dtype=np.int64), depth)
    cells_b = decode_cells(np.asarray(codes_b, dtype=np.int64), depth)
    return np.abs(cells_a - cells_b).max(axis=-1)


__all__ = [
    "chebyshev_codes",
    "cube_offsets",
    "face_shell_offsets",
    "shell_codes_batch",
    "shell_offsets",
    "stencil_codes",
]
