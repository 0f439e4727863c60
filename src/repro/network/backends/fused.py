"""Fused blocked backend: cache-sized row blocks, folded epilogues, streamed SA.

The numpy backend runs each layer as one whole-operand pass: a single BLAS
matmul followed by bias, batch-norm (three whole-array temporaries), and
ReLU passes, each streaming the full stacked ``(B * M * K, C)`` operand
through DRAM, after first materialising that grouped operand from the
neighbour rows.  Past the cache size those elementwise passes dominate.

This backend tiles the *entire layer chain* over row blocks sized to stay
cache-resident.  Each block is pushed through every stage (matmul, then a
folded ``y * scale + shift`` epilogue and an in-place ReLU, see
:class:`~repro.network.backends.base.DenseStage`) before the next block is
touched, in per-thread workspaces that are reused from call to call.  A set
abstraction (:meth:`FusedBlockedBackend.apply_grouped`) is streamed the way
HgPCN feeds VEG neighbour indices to its DLA: a block of whole groups is
gathered by index into the workspace, centred, run through the stages and
max-pooled straight into the output, so neither the ``(M * K, C_in)`` input
nor the ``(M * K, C_out)`` activation ever exists.

Equivalence contract: ``allclose`` against the numpy backend.  The folded
epilogue re-associates the bias/BN arithmetic ``(x@W + b - mean) * s + beta
-> (x@W) * s + shift`` and the blocked matmul may take different BLAS
kernels than the whole-operand one, so bit-identity with numpy is not
guaranteed in general (with this repo's deterministic untrained weights it
usually holds bit-exactly, but the *declared* contract is the tolerance
below and that is what the tests and the ``forward_fused_vs_numpy``
benchmark assert).

Dispatch invariance, by contrast, is exact by construction: the block
decomposition is a pure function of the layer shapes and the per-frame
operand shape, and blocks never span a frame boundary -- so a stacked call
performs literally the same block-sized kernel calls as the per-frame
calls, and a ``Session.run_batch`` response does not depend on how the
frames were stacked under this backend.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.network.backends.base import (
    ComputeBackend,
    DenseStage,
    EquivalenceContract,
    folded_stages,
)


class _Workspace(threading.local):
    """Reusable float64 scratch, one set per thread.

    Worker threads share the backend singleton, so the buffers a block is
    computed in must not be shared between them.
    """

    def __init__(self) -> None:
        self.buffers: Dict[str, np.ndarray] = {}

    def take(self, slot: str, rows: int, cols: int) -> np.ndarray:
        """A C-contiguous ``(rows, cols)`` view of the buffer named ``slot``."""
        buffer = self.buffers.get(slot)
        if buffer is None or buffer.size < rows * cols:
            buffer = self.buffers[slot] = np.empty(rows * cols)
        return buffer[: rows * cols].reshape(rows, cols)


class FusedBlockedBackend(ComputeBackend):
    """Blocked matmul + folded bias/BN/ReLU epilogue per cache-sized block."""

    name = "fused"
    contract = EquivalenceContract(kind="allclose", atol=1e-10, rtol=1e-9)

    #: Combined footprint target (input + output buffer) of one row block,
    #: sized to sit in L2 for the narrow layers where fusion pays.
    target_block_bytes = 1 << 20

    #: Clamp on the block row count: enough rows to amortise the per-call
    #: BLAS overhead, few enough that wide layers do not blow the footprint
    #: target into absurd block counts (wide layers are matmul-bound anyway,
    #: so exceeding L2 there costs nothing fusion could have saved).
    min_block_rows = 64
    max_block_rows = 16384

    def __init__(self) -> None:
        self._workspace = _Workspace()

    def __reduce__(self):
        # Workspaces are scratch: a backend travelling inside a pickled
        # Session (process worker pools) arrives with none.
        return (type(self), ())

    def _block_rows(self, stages: List[DenseStage]) -> int:
        widest = max(max(s.in_features, s.out_features) for s in stages)
        rows = self.target_block_bytes // (2 * 8 * widest)
        return int(min(self.max_block_rows, max(self.min_block_rows, rows)))

    def _run_stages(
        self,
        stages: List[DenseStage],
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Push one block through every stage; the last writes into ``out``.

        Intermediate activations alternate between two workspace buffers
        (never the one ``x`` may itself live in), so the returned array is
        only valid until the next block when ``out`` is not given.
        """
        last = len(stages) - 1
        for i, stage in enumerate(stages):
            if i == last and out is not None:
                y = out
            else:
                y = self._workspace.take(
                    "even" if i % 2 == 0 else "odd", x.shape[0], stage.out_features
                )
            np.matmul(x, stage.weight, out=y)
            if stage.scale is not None:
                y *= stage.scale
            y += stage.shift
            if stage.relu:
                np.maximum(y, 0.0, out=y)
            x = y
        return x

    def apply(self, layer, flat: np.ndarray, num_frames: int = 1) -> np.ndarray:
        if num_frames < 1 or flat.shape[0] % num_frames:
            raise ValueError(
                f"cannot split {flat.shape[0]} stacked rows into "
                f"{num_frames} frames"
            )
        stages = folded_stages(layer)
        out = np.empty((flat.shape[0], stages[-1].out_features))
        rows_per_frame = flat.shape[0] // num_frames
        block = self._block_rows(stages)
        for base in range(0, flat.shape[0], max(1, rows_per_frame)):
            for start in range(base, base + rows_per_frame, block):
                stop = min(start + block, base + rows_per_frame)
                self._run_stages(stages, flat[start:stop], out[start:stop])
        return out

    def apply_grouped(
        self,
        mlp,
        points: np.ndarray,
        features: Optional[np.ndarray],
        centers: np.ndarray,
        neighbor_rows: np.ndarray,
    ) -> np.ndarray:
        stages = folded_stages(mlp)
        num_frames, num_groups, group_size = neighbor_rows.shape
        channels = 0 if features is None else features.shape[-1]
        pooled = np.empty((num_frames, num_groups, stages[-1].out_features))
        # Blocks hold whole groups; a group larger than one block (the
        # global group of the last SA layer) is walked in block-sized
        # pieces under a running max.
        block = self._block_rows(stages)
        piece = min(group_size, block)
        groups_per_block = block // piece
        take = self._workspace.take
        for b in range(num_frames):
            for g0 in range(0, num_groups, groups_per_block):
                g1 = min(g0 + groups_per_block, num_groups)
                target = pooled[b, g0:g1]
                for k0 in range(0, group_size, piece):
                    rows = neighbor_rows[b, g0:g1, k0 : k0 + piece]
                    count, width = rows.shape
                    index = rows.reshape(-1)
                    x = take("input", index.size, 3 + channels)
                    xyz = take("xyz", index.size, 3)
                    np.take(points[b], index, axis=0, out=xyz)
                    np.subtract(
                        xyz.reshape(count, width, 3),
                        centers[b, g0:g1, None, :],
                        out=x.reshape(count, width, -1)[:, :, :3],
                    )
                    if channels:
                        gathered = take("features", index.size, channels)
                        np.take(features[b], index, axis=0, out=gathered)
                        x[:, 3:] = gathered
                    y = self._run_stages(stages, x).reshape(count, width, -1)
                    if k0 == 0:
                        y.max(axis=1, out=target)
                    else:
                        np.maximum(target, y.max(axis=1), out=target)
        return pooled
