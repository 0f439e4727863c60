"""The reference numpy compute backend (the extracted pre-backend path).

This is the execution strategy the stacked forward has always used, moved
behind the :class:`~repro.network.backends.base.ComputeBackend` seam: one
whole-operand call per layer (one BLAS matmul per dense layer, whole-array
bias/BN/ReLU passes), with per-frame fallback wherever stacking is not
bit-identical.  Its contract is strict bit-identity by definition -- it *is*
the reference -- so every pre-existing bit-identity gate (batch dispatch,
serving soak, chaos soak) holds verbatim when this backend runs
(``REPRO_BACKEND=numpy`` or ``backend="numpy"``).
"""

from __future__ import annotations

import numpy as np

from repro.network.backends.base import (
    ComputeBackend,
    EquivalenceContract,
    dense_shapes,
)


class NumpyBackend(ComputeBackend):
    """Whole-operand numpy execution, bit-identical to the sequential path.

    The whole batch runs as one matmul per dense layer when that is
    bit-identical to the per-frame dispatch, which is the case for
    multi-row operands whose layer shapes pass the one-time
    :meth:`~repro.network.backends.base.ComputeBackend.stack_rows_safe`
    calibration.  Two cases fall back to one call per frame to preserve
    bit-identity with the sequential forward:

    * single-row per-frame operands (BLAS's matrix-vector path sums in a
      different order than the stacked GEMM), and
    * layer widths whose BLAS edge kernels are row-count dependent (e.g.
      the 50-class part-segmentation head on OpenBLAS).
    """

    name = "numpy"
    contract = EquivalenceContract(kind="bit_identical")

    def apply(self, layer, flat: np.ndarray, num_frames: int = 1) -> np.ndarray:
        rows_per_frame = flat.shape[0] // num_frames
        if num_frames == 1:
            return layer(flat)
        if rows_per_frame >= 2 and all(
            self.stack_rows_safe(k, n, rows_per_frame, num_frames)
            for k, n in dense_shapes(layer)
        ):
            return layer(flat)
        return np.concatenate(
            [
                layer(flat[b * rows_per_frame : (b + 1) * rows_per_frame])
                for b in range(num_frames)
            ]
        )
