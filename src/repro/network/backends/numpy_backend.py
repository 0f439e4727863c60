"""The reference numpy compute backend (the extracted pre-backend path).

This is the execution strategy the stacked forward has always used, moved
behind the :class:`~repro.network.backends.base.ComputeBackend` seam: one
whole-operand call per layer and frame (one BLAS matmul per dense layer,
whole-array bias/BN/ReLU passes).  Its contract is strict bit-identity by
definition -- it *is* the reference -- so every pre-existing bit-identity
gate (batch dispatch, serving soak, chaos soak) holds verbatim when this
backend runs (``REPRO_BACKEND=numpy`` or ``backend="numpy"``).
"""

from __future__ import annotations

import numpy as np

from repro.network.backends.base import (
    ComputeBackend,
    EquivalenceContract,
    rows_per_frame,
)


class NumpyBackend(ComputeBackend):
    """Whole-operand numpy execution, one frame at a time.

    A stacked operand is applied frame by frame and concatenated, which is
    the definition of dispatch invariance: BLAS may sum a stacked GEMM in a
    different order than a per-frame one (single-row operands take the
    matrix-vector path; some layer widths have row-count dependent edge
    kernels), so the reference never stacks.
    """

    name = "numpy"
    contract = EquivalenceContract(kind="bit_identical")

    def apply(self, layer, flat: np.ndarray, num_frames: int = 1) -> np.ndarray:
        rows = rows_per_frame(flat, num_frames)
        return np.concatenate(
            [
                layer(flat[b * rows : (b + 1) * rows])
                for b in range(num_frames)
            ]
        )
