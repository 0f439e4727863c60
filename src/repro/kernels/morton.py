"""Batched Morton-code primitives.

The scalar encoders in :mod:`repro.geometry.morton` interleave bits one
level at a time; at paper-scale frame sizes that loop (and the per-point
Python variant in :mod:`repro.kernels.reference`) is a hot path.  The
kernels here spread/compact all 21 levels at once with the classic
bit-twiddling magic constants, and compute Hamming distances over whole
int64 code arrays with a single XOR + popcount.

Bit convention (matches ``repro.geometry.morton``): within every 3-bit
group the X bit is most significant, then Y, then Z, i.e. the X bit of
level ``l`` sits at position ``3*l + 2``.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

#: 3 bits per level; 21 levels keep codes inside 63 bits (signed int64).
MAX_DEPTH = 21

_U = np.uint64

# Bit-spreading masks: place the 21 low bits of a coordinate at every third
# bit position (0, 3, 6, ...) of a 64-bit word.
_SPREAD_MASKS = (
    (_U(32), _U(0x1F00000000FFFF)),
    (_U(16), _U(0x1F0000FF0000FF)),
    (_U(8), _U(0x100F00F00F00F00F)),
    (_U(4), _U(0x10C30C30C30C30C3)),
    (_U(2), _U(0x1249249249249249)),
)


def popcount64(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of an integer array, as int64."""
    arr = np.asarray(values).astype(np.uint64, copy=False)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).astype(np.int64)
    # SWAR fallback for NumPy < 2.0.
    v = arr.copy()
    v = v - ((v >> _U(1)) & _U(0x5555555555555555))
    v = (v & _U(0x3333333333333333)) + ((v >> _U(2)) & _U(0x3333333333333333))
    v = (v + (v >> _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
    return ((v * _U(0x0101010101010101)) >> _U(56)).astype(np.int64)


def hamming_codes(a: np.ndarray, b: "np.ndarray | int") -> np.ndarray:
    """XOR + popcount Hamming distance over int64 m-code arrays."""
    xor = np.bitwise_xor(np.asarray(a, dtype=np.int64), np.int64(b) if np.isscalar(b) else np.asarray(b, dtype=np.int64))
    return popcount64(xor)


def _spread_bits(v: np.ndarray) -> np.ndarray:
    v = v & _U(0x1FFFFF)
    for shift, mask in _SPREAD_MASKS:
        v = (v | (v << shift)) & mask
    return v


_COMPACT_MASKS = (
    (_U(2), _U(0x10C30C30C30C30C3)),
    (_U(4), _U(0x100F00F00F00F00F)),
    (_U(8), _U(0x1F0000FF0000FF)),
    (_U(16), _U(0x1F00000000FFFF)),
    (_U(32), _U(0x1FFFFF)),
)


#: Position of each axis inside a 3-bit level group (X most significant).
_AXIS_SHIFTS = np.array([2, 1, 0], dtype=np.uint64)


def spread_axis(coords: np.ndarray, axis) -> np.ndarray:
    """One axis's share of an m-code: ``coords`` spread to every third bit.

    Morton codes are separable -- ``encode_cells`` is the OR of the three
    axes' spread coordinates -- so a caller that combines few distinct
    per-axis values many times (a neighbour stencil) spreads each value once
    and ORs table entries.  ``axis`` is 0/1/2 for X/Y/Z, or an index array
    broadcastable against ``coords`` (``np.arange(3)[:, None, None]`` for an
    axis-major table).  Coordinates must already lie in ``[0, 2**21)``.
    """
    return _spread_bits(np.asarray(coords).astype(np.uint64)) << _AXIS_SHIFTS[axis]


def _compact_bits(v: np.ndarray) -> np.ndarray:
    v = v & _U(0x1249249249249249)
    for shift, mask in _COMPACT_MASKS:
        v = (v ^ (v >> shift)) & mask
    return v


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}]; got {depth}")


def encode_cells(cells: np.ndarray, depth: int) -> np.ndarray:
    """Interleave an ``(N, 3)`` array of integer voxel indices into m-codes.

    Equivalent to calling :func:`repro.geometry.morton.morton_encode` per
    row, but all levels are spread at once.
    """
    _check_depth(depth)
    cells = np.asarray(cells, dtype=np.int64)
    limit = np.int64(1) << np.int64(depth)
    if cells.size and (cells.min() < 0 or cells.max() >= limit):
        raise ValueError(f"cell indices outside [0, {int(limit)})")
    code = (
        spread_axis(cells[..., 0], 0)
        | spread_axis(cells[..., 1], 1)
        | spread_axis(cells[..., 2], 2)
    )
    return code.astype(np.int64)


def decode_cells(codes: np.ndarray, depth: int) -> np.ndarray:
    """Inverse of :func:`encode_cells`: ``(N,)`` codes to ``(N, 3)`` cells."""
    _check_depth(depth)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= (1 << (3 * depth))):
        raise ValueError("code outside the range implied by depth")
    u = codes.astype(np.uint64)
    cells = np.stack(
        [
            _compact_bits(u >> _U(2)),
            _compact_bits(u >> _U(1)),
            _compact_bits(u),
        ],
        axis=-1,
    )
    return cells.astype(np.int64)


# ----------------------------------------------------------------------
# Scalar fast path (pure Python ints/floats)
# ----------------------------------------------------------------------
_PY_SPREAD_MASKS = tuple((int(s), int(m)) for s, m in _SPREAD_MASKS)


def _spread_bits_scalar(v: int) -> int:
    v &= 0x1FFFFF
    for shift, mask in _PY_SPREAD_MASKS:
        v = (v | (v << shift)) & mask
    return v


#: Every 7-bit value spread to every third bit; three chunks cover the 21
#: bits of the deepest cell index.
_SPREAD7 = tuple(_spread_bits_scalar(v) for v in range(128))


def point_encoder(
    box_min: Tuple[float, float, float],
    extent: Tuple[float, float, float],
    depth: int,
) -> Callable[[float, float, float], int]:
    """Bind a box and depth once; return ``encode(x, y, z) -> m-code``.

    ``encode`` takes Python floats and makes no NumPy call: per axis it runs
    the IEEE-double steps of :func:`repro.geometry.morton.voxel_indices` in
    the same order -- ``(p - min) / extent * resolution``, then ``floor``
    and a clamp to ``[0, resolution)`` -- and spreads the cell with three
    7-bit table reads.  A caller that encodes many points against one box
    (OIS encodes its summary point once per pick) pays the argument
    conversion and the depth check once, here.

    ``extent`` must already have zero sizes replaced by 1.0 (the
    ``voxel_indices`` convention).
    """
    _check_depth(depth)
    resolution = 1 << depth
    top = resolution - 1
    min_x, min_y, min_z = (float(v) for v in box_min)
    ext_x, ext_y, ext_z = (float(v) for v in extent)
    s7 = _SPREAD7
    floor = math.floor

    def encode(x: float, y: float, z: float) -> int:
        cx = floor((x - min_x) / ext_x * resolution)
        cy = floor((y - min_y) / ext_y * resolution)
        cz = floor((z - min_z) / ext_z * resolution)
        # Clamp only off the common path (max face, outside the box):
        # min/max calls would double the cost of an in-box point.
        if not (0 <= cx <= top and 0 <= cy <= top and 0 <= cz <= top):
            cx, cy, cz = (min(max(c, 0), top) for c in (cx, cy, cz))
        # X, Y, Z land at bit offsets 2, 1, 0 of every level group; a cell
        # spreads as three 7-bit chunks, 21 code bits apart.
        x_bits = s7[cx & 0x7F] | (s7[(cx >> 7) & 0x7F] << 21) | (s7[cx >> 14] << 42)
        y_bits = s7[cy & 0x7F] | (s7[(cy >> 7) & 0x7F] << 21) | (s7[cy >> 14] << 42)
        z_bits = s7[cz & 0x7F] | (s7[(cz >> 7) & 0x7F] << 21) | (s7[cz >> 14] << 42)
        return (x_bits << 2) | (y_bits << 1) | z_bits

    return encode


def encode_point_scalar(
    point: Tuple[float, float, float],
    box_min: Tuple[float, float, float],
    extent: Tuple[float, float, float],
    depth: int,
) -> int:
    """Encode ONE point without any NumPy call.

    Exactly matches :func:`repro.geometry.morton.morton_encode_points` for a
    single point; a one-shot call of :func:`point_encoder`, which holds the
    arithmetic.  Code that encodes many points against one box should bind
    ``point_encoder`` once instead of paying its set-up on every call.
    """
    x, y, z = point
    return point_encoder(box_min, extent, depth)(float(x), float(y), float(z))
