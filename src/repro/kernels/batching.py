"""Batch-native primitives: frame stacking and frame offsets.

The batch-native execution path (``Session.run_batch`` -> engines ->
``forward_batch``) moves the unit of work from one frame to a stack of
same-shaped frames.  The primitives here are the array plumbing that makes
that possible without Python loops:

``stack_frames``
    Stack B same-shaped per-frame arrays into one ``(B, ...)`` tensor,
    validating the shape contract the batch relies on.
``frame_offsets``
    Row offsets of each frame inside a stacked-and-flattened tensor, for
    ``B`` frames of ``N`` rows.  Adding the offset to per-frame row indices
    turns them into rows of the flattened stack, so B gathers become one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def stack_frames(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stack same-shaped per-frame arrays into one ``(B, ...)`` tensor.

    Raises ``ValueError`` when the arrays disagree on shape -- the batch
    contract is that every frame of a group is exactly the same shape.
    """
    if not arrays:
        raise ValueError("cannot stack an empty frame list")
    first = np.asarray(arrays[0])
    for i, array in enumerate(arrays):
        if np.asarray(array).shape != first.shape:
            raise ValueError(
                f"frame {i} has shape {np.asarray(array).shape}, "
                f"expected {first.shape}"
            )
    return np.stack([np.asarray(array) for array in arrays])


def frame_offsets(num_frames: int, frame_size: int) -> np.ndarray:
    """Row offset of each frame inside a flattened ``(B * N, ...)`` stack.

    ``stacked.reshape(B * N, -1)[rows + frame_offsets(B, N)[b]]`` addresses
    frame ``b``'s rows, so per-frame index arrays (gather rows, centroid
    picks) can be applied to the whole stack with one fancy-indexing call.
    """
    if num_frames < 0 or frame_size < 0:
        raise ValueError("num_frames and frame_size must be >= 0")
    return np.arange(num_frames, dtype=np.intp) * frame_size
