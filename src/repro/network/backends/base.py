"""Compute-backend contract: how the network forward executes its layers.

A :class:`ComputeBackend` owns the *execution strategy* of the stacked
PointNet++ forward: every row-wise dense layer (FP refinements, heads) in
:mod:`repro.network.pointnet2` goes through :meth:`ComputeBackend.apply`,
and every set abstraction (gather,
centre, shared MLP, max over the group) through
:meth:`ComputeBackend.apply_grouped`.  Swapping the backend changes *how*
``x @ W + b`` / batch-norm / ReLU / pooling are scheduled (one whole-array
pass per op, cache-blocked fused passes streamed from the neighbour rows,
...) but never *what* is computed, and every backend
declares how close its outputs are to the reference numpy backend via an
explicit :class:`EquivalenceContract`:

* ``bit_identical`` -- outputs are byte-for-byte the numpy results.
* ``allclose`` -- outputs match within a stated ``atol``/``rtol``
  tolerance (floating-point re-association from fusion, blocking, or a
  different BLAS), enforced by ``tests/test_backends.py`` and the
  ``forward_fused_vs_numpy`` benchmark scenario.

Orthogonally to the numpy-equivalence contract, every backend MUST be
**dispatch invariant**: applying a stacked ``(B * rows, C)`` operand frame
by frame or as one batch must produce bit-identical rows *for that same
backend*.  That invariance is what makes a frame's ``Session.run_batch``
response independent of how the stream was chunked and stacked -- and keeps
the serving/chaos soaks green -- under every backend.  Both built-in
backends guarantee it by construction: the default fused backend's blocks
never span frames, and the numpy backend applies a stacked operand one
frame at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels import frame_offsets
from repro.network.layers import BatchNorm, Dense, SharedMLP


@dataclass(frozen=True)
class EquivalenceContract:
    """Declared closeness of a backend's outputs to the numpy backend's.

    ``kind`` is ``"bit_identical"`` or ``"allclose"``; the tolerances are
    only meaningful for the latter.  The contract object itself is what the
    tests and the benchmark harness consume, so the asserted tolerance can
    never drift from the declared one.
    """

    kind: str
    atol: float = 0.0
    rtol: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("bit_identical", "allclose"):
            raise ValueError(
                f"contract kind must be 'bit_identical' or 'allclose', "
                f"got {self.kind!r}"
            )

    def matches(self, actual: np.ndarray, expected: np.ndarray) -> bool:
        """Whether ``actual`` satisfies this contract against ``expected``."""
        actual = np.asarray(actual)
        expected = np.asarray(expected)
        if actual.shape != expected.shape:
            return False
        if self.kind == "bit_identical":
            return bool(np.array_equal(actual, expected))
        return bool(
            np.allclose(actual, expected, atol=self.atol, rtol=self.rtol)
        )

    def describe(self) -> str:
        if self.kind == "bit_identical":
            return "bit_identical"
        return f"allclose(atol={self.atol:g}, rtol={self.rtol:g})"


@dataclass(frozen=True)
class DenseStage:
    """One fused-view stage of a layer chain: matmul + folded epilogue.

    ``weight`` feeds the matmul; the epilogue is ``y * scale + shift``
    followed by an optional ReLU.  ``scale is None`` means no scaling
    (plain ``y + shift``).  For a Dense+BatchNorm pair the batch-norm
    affine transform folds into ``scale``/``shift`` together with the
    dense bias::

        bn(x @ W + b) = (x @ W + b - mean) * s + beta        s = gamma / sqrt(var + eps)
                      = (x @ W) * s + ((b - mean) * s + beta)

    which is exactly one multiply and one add per output element instead
    of the four whole-array passes (bias, subtract, scale, shift) the
    unfused path streams through DRAM.
    """

    weight: np.ndarray
    scale: Optional[np.ndarray]
    shift: np.ndarray
    relu: bool

    @property
    def in_features(self) -> int:
        return int(self.weight.shape[0])

    @property
    def out_features(self) -> int:
        return int(self.weight.shape[1])


def fold_stages(layer) -> List[DenseStage]:
    """Decompose a Dense or SharedMLP into fused matmul+epilogue stages.

    A bare :class:`Dense` becomes one stage with no scaling and no ReLU
    (callers such as the classification head apply their own activation,
    exactly as on the unfused path).  A :class:`SharedMLP` contributes one
    stage per dense layer with its batch-norm folded in and the ReLU flag
    matching ``final_activation``.
    """
    if isinstance(layer, Dense):
        return [
            DenseStage(
                weight=layer.weight, scale=None, shift=layer.bias, relu=False
            )
        ]
    if not isinstance(layer, SharedMLP):
        raise TypeError(
            f"compute backends apply Dense or SharedMLP layers, "
            f"got {type(layer).__name__}"
        )
    stages: List[DenseStage] = []
    last = len(layer.layers) - 1
    for i, dense in enumerate(layer.layers):
        norm: Optional[BatchNorm] = layer.norms[i]
        relu = i < last or layer.final_activation
        if norm is None:
            stages.append(
                DenseStage(
                    weight=dense.weight,
                    scale=None,
                    shift=dense.bias,
                    relu=relu,
                )
            )
        else:
            scale = norm.gamma / np.sqrt(norm.running_var + norm.eps)
            shift = (dense.bias - norm.running_mean) * scale + norm.beta
            stages.append(
                DenseStage(weight=dense.weight, scale=scale, shift=shift, relu=relu)
            )
    return stages


def rows_per_frame(flat: np.ndarray, num_frames: int) -> int:
    """Rows of each frame in a stacked ``(num_frames * rows, C)`` operand.

    Raises ``ValueError`` when the rows do not split evenly into
    ``num_frames >= 1`` frames, so no backend silently drops rows.
    """
    if num_frames < 1 or flat.shape[0] % num_frames:
        raise ValueError(
            f"cannot split {flat.shape[0]} stacked rows into "
            f"{num_frames} frames"
        )
    return flat.shape[0] // num_frames


def _parameters(layer) -> Tuple[np.ndarray, ...]:
    """Every array :func:`fold_stages` reads from ``layer``."""
    if isinstance(layer, SharedMLP):
        arrays: List[np.ndarray] = []
        for dense, norm in zip(layer.layers, layer.norms):
            arrays += [dense.weight, dense.bias]
            if norm is not None:
                arrays += [norm.gamma, norm.beta, norm.running_mean, norm.running_var]
        return tuple(arrays)
    return (layer.weight, layer.bias)


def folded_stages(layer) -> List[DenseStage]:
    """:func:`fold_stages` in single precision, folded once and kept on the layer.

    The batch-norm fold runs in float64; its weight, scale and shift are
    then cast to float32 once, the precision the fused backend computes in.
    The cached fold is revalidated against the identity of every parameter
    array, so re-assigning a weight or a batch-norm statistic refolds;
    editing a parameter array *in place* after the layer's first
    application is not supported.
    """
    cached = layer.__dict__.get("_folded")
    if cached is not None:
        params = _parameters(layer)
        if len(params) == len(cached[0]) and all(
            a is b for a, b in zip(params, cached[0])
        ):
            return cached[1]
    stages = [
        replace(
            stage,
            weight=stage.weight.astype(np.float32),
            scale=None if stage.scale is None else stage.scale.astype(np.float32),
            shift=stage.shift.astype(np.float32),
        )
        for stage in fold_stages(layer)  # raises for foreign layer types
    ]
    layer.__dict__["_folded"] = (_parameters(layer), stages)
    return stages


class ComputeBackend:
    """Base class of the pluggable network-execution backends.

    Subclasses implement ``apply(layer, flat, num_frames=1)``, which
    applies a row-wise layer to a stacked ``(num_frames * rows, C)``
    operand, and may override :meth:`apply_grouped`.  ``apply`` must be
    dispatch invariant: the rows of ``apply(layer, stacked, B)`` are
    bit-identical to concatenating ``apply(layer, frame, 1)`` over the B
    frames.  Instances are cheap value objects; forked pool workers
    inherit them.
    """

    #: Registry name (``registry.create("backend", name)``).
    name: str = "abstract"
    #: Declared closeness to the numpy backend's outputs.
    contract: EquivalenceContract = EquivalenceContract(kind="bit_identical")

    # ------------------------------------------------------------------

    def apply_grouped(
        self,
        mlp: SharedMLP,
        points: np.ndarray,
        features: Optional[np.ndarray],
        centers: np.ndarray,
        neighbor_rows: np.ndarray,
    ) -> np.ndarray:
        """One set abstraction: gather, centre, shared MLP, max over K.

        ``points`` is the stacked ``(B, N, 3)`` coordinate tensor,
        ``features`` the ``(B, N, F)`` feature tensor or ``None``,
        ``centers`` the ``(B, M, 3)`` group centres and ``neighbor_rows``
        the ``(B, M, K)`` frame-local point rows of every group.  Returns
        the pooled ``(B, M, C_out)`` features.  The same dispatch
        invariance as :meth:`apply` holds frame by frame.

        This base implementation materialises the ``(B * M * K, 3 + F)``
        grouped operand and hands it to :meth:`apply`; backends that can
        consume the neighbour rows block by block override it.
        """
        num_frames, num_points, _ = points.shape
        _, num_groups, group_size = neighbor_rows.shape
        flat_rows = neighbor_rows + frame_offsets(num_frames, num_points)[
            :, None, None
        ]
        grouped = points.reshape(-1, 3)[flat_rows] - centers[:, :, None, :]
        if features is not None:
            grouped_features = features.reshape(num_frames * num_points, -1)[
                flat_rows
            ]
            grouped = np.concatenate([grouped, grouped_features], axis=-1)
        flat = grouped.reshape(num_frames * num_groups * group_size, -1)
        return (
            self.apply(mlp, flat, num_frames)
            .reshape(num_frames, num_groups, group_size, -1)
            .max(axis=2)
        )

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Metadata for metrics reports and the CLI."""
        return {
            "name": self.name,
            "contract": self.contract.describe(),
        }
