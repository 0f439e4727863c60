"""Optional torch compute backend (multi-core / GPU when available).

PyTorch is an *optional* dependency of this repo: the backend only
registers when ``torch`` is importable (see the package ``__init__``), the
import itself is deferred to backend construction, and every torch test is
``skipif``-guarded -- on a torch-less host the rest of the backend seam is
completely unaffected.

Execution mirrors the numpy backend's dispatch structure (whole stacked
operand when the per-backend stacking probe passes, per-frame fallback
otherwise, so the batched path stays bit-identical to the sequential path
*under this backend*), but each stage runs as torch ops: ``x @ W`` then the
folded ``y * scale + shift`` epilogue and ReLU, on CUDA when present and
the intra-op thread pool otherwise.  Operands stay float64 end-to-end.

Equivalence contract: ``allclose`` against the numpy backend -- torch's
matmul kernels (and cuBLAS on GPU) order reductions differently from the
linked BLAS, so bit-identity cannot be promised; the declared tolerance is
what ``tests/test_backends.py`` asserts when torch is installed.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from repro.network.backends.base import (
    BackendUnavailable,
    ComputeBackend,
    EquivalenceContract,
    dense_shapes,
    fold_stages,
)


def torch_available() -> bool:
    """Whether PyTorch is importable on this host (no import side effects)."""
    return importlib.util.find_spec("torch") is not None


class TorchBackend(ComputeBackend):
    """Torch execution of the dense layer chains; CUDA when available."""

    name = "torch"
    contract = EquivalenceContract(kind="allclose", atol=1e-9, rtol=1e-7)

    def __init__(self):
        if not torch_available():
            raise BackendUnavailable(
                "the 'torch' backend requires PyTorch, which is not "
                "installed in this environment"
            )
        import torch

        self._torch = torch
        self._device = "cuda" if torch.cuda.is_available() else "cpu"

    # The torch module handle is not picklable; drop it from the state so
    # backends travelling inside pickled Sessions (process worker pools)
    # reconstruct cleanly, re-importing torch on the receiving side.
    def __getstate__(self):
        return {"_device": self._device}

    def __setstate__(self, state):
        import torch

        self._torch = torch
        self._device = state["_device"]

    # ------------------------------------------------------------------
    def _to_tensor(self, array: np.ndarray):
        tensor = self._torch.from_numpy(np.ascontiguousarray(array))
        return tensor.to(self._device) if self._device != "cpu" else tensor

    def _apply_once(self, layer, flat: np.ndarray) -> np.ndarray:
        torch = self._torch
        with torch.no_grad():
            x = self._to_tensor(flat)
            for stage in fold_stages(layer):
                y = x @ self._to_tensor(stage.weight)
                if stage.scale is not None:
                    y = y * self._to_tensor(stage.scale)
                y = y + self._to_tensor(stage.shift)
                if stage.relu:
                    y = torch.relu(y)
                x = y
            return x.cpu().numpy()

    def apply(self, layer, flat: np.ndarray, num_frames: int = 1) -> np.ndarray:
        rows_per_frame = flat.shape[0] // num_frames
        if num_frames == 1:
            return self._apply_once(layer, flat)
        if rows_per_frame >= 2 and all(
            self.stack_rows_safe(k, n, rows_per_frame, num_frames)
            for k, n in dense_shapes(layer)
        ):
            return self._apply_once(layer, flat)
        return np.concatenate(
            [
                self._apply_once(
                    layer, flat[b * rows_per_frame : (b + 1) * rows_per_frame]
                )
                for b in range(num_frames)
            ]
        )

    def _probe_matmul(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        torch = self._torch
        with torch.no_grad():
            return (self._to_tensor(x) @ self._to_tensor(weight)).cpu().numpy()
