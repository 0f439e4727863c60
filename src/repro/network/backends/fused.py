"""Fused blocked backend: cache-sized row blocks, folded epilogues, streamed SA.

It computes in float32, the precision of the modelled FCU
(:mod:`repro.hardware.fcu`): the weights are folded in float64 and cast
once per layer, the workspaces are float32, and only the boundaries are
float64 -- each call casts its input block by block and its result once.

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
gathered by index into the workspace, run through the stages and
max-pooled straight into the output, so neither the ``(M * K, C_in)`` input
nor the ``(M * K, C_out)`` activation ever exists.

Both ends of a set abstraction's MLP work on points rather than on group
rows, by two identities:

* The first layer is linear before its epilogue (Mesorasi's "delayed
  aggregation"): ``[p_j - c_i, f_j] @ W = ((p_j - o) @ W_xyz + f_j @ W_f)
  - (c_i - o) @ W_xyz``.  When the layer does not widen and the groups
  hold at least as many rows as the frame has points, the bracket is
  computed once per point and a block gathers its rows.  At the
  1024-point classification shape ``sa2`` runs its first matmul on 512
  points instead of 8192 group rows; ``sa1`` (3 input channels -> 64)
  widens and keeps the gather.  On both paths ``o`` is the frame's first
  centre and ``p - o``, ``c - o`` are formed in float64 before the one
  rounding to float32, so the rounding follows the cloud's extent, not
  its position.
* The last epilogue is monotone, so it commutes with the max over the
  group: the raw last matmul output is pooled and the epilogue runs on
  the ``(M, C_out)`` pooled rows.  This step is exact: the same bits as
  epilogue-then-max (see ``_pooling_scale`` for negative scales).

Equivalence contract: ``allclose`` against the float64 numpy backend.
Single precision dominates the difference; besides, the folded epilogue
re-associates the bias/BN arithmetic ``(x@W + b - mean) * s + beta ->
(x@W) * s + shift``, the hoisted first layer subtracts two matmul results
instead of multiplying ``p - c``, and the blocked matmul may take
different BLAS kernels than the whole-operand one.  The *declared*
contract is the tolerance below and that is what the tests and the
``forward_fused_vs_numpy`` benchmark assert.

Dispatch invariance, by contrast, is exact by construction: the block
decomposition is a pure function of the layer shapes and the per-frame
operand shape, and neither a block nor the hoisted first-layer table
spans a frame boundary -- so a stacked call performs literally the same
kernel calls as the per-frame calls, and a ``Session.run_batch`` response
does not depend on how the frames were stacked under this backend.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.network.backends.base import (
    ComputeBackend,
    DenseStage,
    EquivalenceContract,
    folded_stages,
    rows_per_frame,
)


class _Workspace(threading.local):
    """Reusable float32 scratch, one set per thread.

    Worker threads share the backend singleton, so the buffers a block is
    computed in must not be shared between them.
    """

    dtype = np.dtype(np.float32)

    def __init__(self) -> None:
        self.buffers: Dict[str, np.ndarray] = {}

    def take(self, slot: str, rows: int, cols: int) -> np.ndarray:
        """A C-contiguous ``(rows, cols)`` view of the buffer named ``slot``."""
        buffer = self.buffers.get(slot)
        if buffer is None or buffer.size < rows * cols:
            buffer = self.buffers[slot] = np.empty(rows * cols, self.dtype)
        return buffer[: rows * cols].reshape(rows, cols)


class FusedBlockedBackend(ComputeBackend):
    """Blocked matmul + folded bias/BN/ReLU epilogue per cache-sized block."""

    name = "fused"
    contract = EquivalenceContract(kind="allclose", atol=1e-5, rtol=1e-4)

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

    def _block_rows(self, stages: List[DenseStage]) -> int:
        widest = max(max(s.in_features, s.out_features) for s in stages)
        row_bytes = 2 * _Workspace.dtype.itemsize * widest  # input + output
        rows = self.target_block_bytes // row_bytes
        return int(min(self.max_block_rows, max(self.min_block_rows, rows)))

    def _run_stages(
        self,
        stages: List[DenseStage],
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
        last_epilogue: bool = True,
    ) -> np.ndarray:
        """Push one block through every stage; the last writes into ``out``.

        Intermediate activations alternate between two workspace buffers
        (never the one ``x`` may itself live in), so the returned array is
        only valid until the next block when ``out`` is not given.  With
        ``last_epilogue=False`` the last stage stops at its raw matmul
        output.  With no stages, ``x`` itself is returned.
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
            if i < last or last_epilogue:
                _epilogue(y, stage.scale, stage.shift, stage.relu)
            x = y
        return x

    def apply(self, layer, flat: np.ndarray, num_frames: int = 1) -> np.ndarray:
        rows = rows_per_frame(flat, num_frames)
        stages = folded_stages(layer)
        out = np.empty((flat.shape[0], stages[-1].out_features), _Workspace.dtype)
        block = self._block_rows(stages)
        for base in range(0, flat.shape[0], max(1, rows)):
            for start in range(base, base + rows, block):
                stop = min(start + block, base + rows)
                x = self._workspace.take("input", stop - start, flat.shape[1])
                x[...] = flat[start:stop]
                self._run_stages(stages, x, out[start:stop])
        return out.astype(np.float64)

    @staticmethod
    def _hoists(
        first: DenseStage, num_points: int, num_groups: int, group_size: int
    ) -> bool:
        """Whether the first stage runs per source point instead of per row.

        Hoisting pays when the layer does not widen (the gathered table
        rows are no wider than the input rows they replace) and the groups
        hold at least as many rows as there are points to tabulate.
        """
        return (
            first.in_features >= first.out_features
            and num_groups * group_size >= num_points
        )

    def apply_grouped(
        self,
        mlp,
        points: np.ndarray,
        features: Optional[np.ndarray],
        centers: np.ndarray,
        neighbor_rows: np.ndarray,
    ) -> np.ndarray:
        """Stream a set abstraction block by block; see the module docstring.

        Once per frame the points and centres are taken about the frame's
        first centre ``o`` in float64 and rounded to float32 once, so the
        rounding follows the cloud's extent, not its position; a block
        gathers rows of that ``(N, C_in)`` table ``[p - o, f]``.  When
        :meth:`_hoists` holds, the first stage's matmul runs on the table
        instead (``table @ W`` and the centre term ``(c - o) @ W_xyz``), and
        a block gathers its rows, subtracts the centre term and applies the
        first epilogue.  The last stage is max-pooled over the group
        straight from its raw matmul output, and its epilogue then runs on
        the ``(M, C_out)`` pooled rows only.
        """
        stages = folded_stages(mlp)
        first, last = stages[0], stages[-1]
        num_frames, num_groups, group_size = neighbor_rows.shape
        num_points = points.shape[1]
        channels = 0 if features is None else features.shape[-1]
        hoist = self._hoists(first, num_points, num_groups, group_size)
        rest = stages[1:] if hoist else stages
        scale, sign = _pooling_scale(last)
        pooled = np.empty(
            (num_frames, num_groups, last.out_features), _Workspace.dtype
        )
        # Blocks hold whole groups; a group larger than one block (the
        # global group of the last SA layer) is walked in block-sized
        # pieces under a running max.
        block = self._block_rows(stages)
        piece = min(group_size, block)
        groups_per_block = block // piece
        take = self._workspace.take
        for b in range(num_frames):
            origin = centers[b, 0]
            local = take("points", num_points, first.in_features)
            np.subtract(points[b], origin, out=local[:, :3])
            if channels:
                local[:, 3:] = features[b]
            local_centres = take("centres", num_groups, 3)
            np.subtract(centers[b], origin, out=local_centres)
            if hoist:
                table = take("table", num_points, first.out_features)
                np.matmul(local, first.weight, out=table)
                centre_term = take("centre_term", num_groups, first.out_features)
                np.matmul(local_centres, first.weight[:3], out=centre_term)
            for g0 in range(0, num_groups, groups_per_block):
                g1 = min(g0 + groups_per_block, num_groups)
                target = pooled[b, g0:g1]
                for k0 in range(0, group_size, piece):
                    rows = neighbor_rows[b, g0:g1, k0 : k0 + piece]
                    count, width = rows.shape
                    index = rows.reshape(-1)
                    if hoist:
                        x = take("input", index.size, first.out_features)
                        np.take(table, index, axis=0, out=x)
                        grouped = x.reshape(count, width, -1)
                        np.subtract(
                            grouped, centre_term[g0:g1, None, :], out=grouped
                        )
                        if rest:
                            _epilogue(x, first.scale, first.shift, first.relu)
                    else:
                        x = take("input", index.size, first.in_features)
                        np.take(local, index, axis=0, out=x)
                        xyz = x.reshape(count, width, -1)[:, :, :3]
                        np.subtract(xyz, local_centres[g0:g1, None, :], out=xyz)
                    y = self._run_stages(rest, x, last_epilogue=False)
                    if sign is not None:
                        y *= sign
                    y = y.reshape(count, width, -1)
                    if k0 == 0:
                        y.max(axis=1, out=target)
                    else:
                        np.maximum(target, y.max(axis=1), out=target)
                _epilogue(target, scale, last.shift, last.relu)
        return pooled.astype(np.float64)


def _epilogue(
    y: np.ndarray, scale: Optional[np.ndarray], shift: np.ndarray, relu: bool
) -> None:
    """``y * scale + shift``, then ReLU if asked, in place."""
    if scale is not None:
        y *= scale
    y += shift
    if relu:
        np.maximum(y, 0.0, out=y)


def _pooling_scale(
    stage: DenseStage,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """``(scale, sign)`` that let the max over a group precede ``stage``'s epilogue.

    Every epilogue step is monotone and IEEE rounding is monotone, so for a
    channel with ``scale >= 0`` the max of the epilogue is the epilogue of
    the max, bit for bit.  A channel with ``scale < 0`` turns the max into
    a min; multiplying its raw output column by ``sign = -1`` (exact) before
    the max and scaling by ``|scale|`` after it gives the same bits as
    folding the sign into the weight column, without copying the weight.
    ``sign`` is ``None`` when no channel needs it, as for every batch-norm
    fold with positive ``gamma``.
    """
    if stage.scale is None or not (stage.scale < 0).any():
        return stage.scale, None
    sign = np.where(stage.scale < 0, -1.0, 1.0).astype(stage.scale.dtype)
    return stage.scale * sign, sign
