"""PointNet++ (SSG) models built from scratch.

The three Table I model variants are assembled here:

* ``Pointnet++(c)``  -- shape classification (ModelNet40-style).
* ``Pointnet++(ps)`` -- object part segmentation (ShapeNet-style).
* ``Pointnet++(s)``  -- scene semantic segmentation (S3DIS / KITTI-style).

Each set-abstraction (SA) layer performs the two steps Figure 2 separates:
**data structuring** (pick central points, gather their neighborhoods via a
pluggable :class:`~repro.datastructuring.base.Gatherer`) and **feature
computation** (a shared MLP over the gathered groups followed by max
pooling).  The forward pass returns real logits *and* an execution trace
(gather results + per-layer MVM workload) that the accelerator models replay
on their hardware cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datastructuring.base import Gatherer, GatherResult, pick_random_centroids
from repro.datastructuring.knn import BruteForceKNN
from repro.geometry.pointcloud import PointCloud
from repro.kernels import stack_frames, three_nearest
from repro.network.backends import ComputeBackend, resolve_backend
from repro.network.layers import Dense, ReLU, SharedMLP

# Every layer below has one implementation, ``forward_batch`` over a stack
# of B same-shaped frames; one frame is a stack with B = 1.  Every
# dense-layer application and every set abstraction goes through a
# pluggable ComputeBackend (repro/network/backends/): the default fused
# backend streams cache-sized blocks, the numpy backend reproduces the
# historical whole-operand path one frame at a time, and every backend
# states its closeness to numpy as an explicit equivalence contract.
# Backends are dispatch invariant, so a frame's result does not depend on
# how many frames share its stack.


@dataclass
class LayerTrace:
    """Record of one feature-computation layer execution."""

    name: str
    num_vectors: int
    mac_ops: int
    output_channels: int


@dataclass
class SetAbstractionTrace:
    """Record of one SA layer execution (data structuring + computation)."""

    name: str
    gather: Optional[GatherResult]
    layers: List[LayerTrace] = field(default_factory=list)


@dataclass
class ForwardResult:
    """Output of a model forward pass."""

    logits: np.ndarray
    sa_traces: List[SetAbstractionTrace] = field(default_factory=list)
    head_traces: List[LayerTrace] = field(default_factory=list)

    def predicted_class(self) -> np.ndarray:
        return np.argmax(self.logits, axis=-1)

    def total_mac_ops(self) -> int:
        total = sum(t.mac_ops for t in self.head_traces)
        for sa in self.sa_traces:
            total += sum(t.mac_ops for t in sa.layers)
        return total


class SetAbstraction:
    """One PointNet++ set-abstraction (SSG) layer.

    Parameters
    ----------
    num_centroids:
        Number of central points kept by this layer (``None`` groups all
        points into a single global group, as the final SA layer does).
    neighbors:
        Gathering size K of the data structuring step.
    mlp_channels:
        Channel widths of the shared MLP, starting with the input width
        (coordinates contribute 3 extra channels).
    gatherer:
        Data structuring method; brute-force KNN by default so the layer is
        self-contained, HgPCN substitutes VEG.
    backend:
        Compute backend executing the shared MLP (name, instance, or
        ``None`` for the process default -- the fused backend unless
        ``REPRO_BACKEND`` overrides it).
    """

    def __init__(
        self,
        name: str,
        num_centroids: Optional[int],
        neighbors: int,
        mlp_channels: Sequence[int],
        gatherer: Optional[Gatherer] = None,
        seed: int = 0,
        backend: Union[None, str, ComputeBackend] = None,
    ):
        self.name = name
        self.num_centroids = num_centroids
        self.neighbors = neighbors
        self.mlp = SharedMLP(list(mlp_channels), name=f"{name}.mlp")
        self.gatherer = gatherer or BruteForceKNN()
        self.seed = seed
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------
    def forward_batch(
        self,
        clouds: List[PointCloud],
        features: Optional[np.ndarray],
    ) -> Tuple[List[PointCloud], np.ndarray, List[SetAbstractionTrace]]:
        """Run the layer over a stack of B same-shaped frames.

        Data structuring stays per frame (each frame's neighborhoods are its
        own); the feature computation -- translate each group into its
        centroid's local frame as PointNet++ does, concatenate coordinates
        and features channel-wise, shared MLP, max over the group -- is the
        backend's :meth:`~repro.network.backends.ComputeBackend.apply_grouped`
        over the neighbour rows of the whole stack.

        Centroid seeding convention: :func:`pick_random_centroids` is seeded
        with the *layer* seed -- the same seed for every frame -- so
        same-shaped frames pick identical centroid rows whether they arrive
        alone or stacked, which is what makes the batched logits
        bit-identical to the sequential ones.

        ``features`` is the stacked ``(B, N, F)`` feature tensor (``None``
        for coordinate-only input).  Returns the per-frame centroid clouds,
        the stacked ``(B, M, C_out)`` output features, and one
        :class:`SetAbstractionTrace` per frame.
        """
        num_frames = len(clouds)
        num_points = clouds[0].num_points
        channels = 3 + (0 if features is None else features.shape[-1])
        if channels != self.mlp.in_features:
            raise ValueError(
                f"{self.name}: MLP expects {self.mlp.in_features} input "
                f"channels, got {channels}"
            )

        gathers: List[Optional[GatherResult]] = [None] * num_frames
        if self.num_centroids is None:
            # Global grouping: every point of each frame forms one group.
            rows = np.broadcast_to(
                np.arange(num_points), (num_frames, 1, num_points)
            )
            new_clouds = [
                PointCloud(points=cloud.centroid()[None, :]) for cloud in clouds
            ]
        else:
            num_centroids = min(self.num_centroids, num_points)
            neighbors = min(self.neighbors, num_points)
            gathers = [
                self.gatherer.gather(
                    cloud,
                    pick_random_centroids(cloud, num_centroids, seed=self.seed),
                    neighbors,
                )
                for cloud in clouds
            ]
            rows = stack_frames([g.neighbor_indices for g in gathers])
            new_clouds = [
                cloud.select(gather.centroid_indices)
                for cloud, gather in zip(clouds, gathers)
            ]

        new_features = self.backend.apply_grouped(
            self.mlp,
            stack_frames([cloud.points for cloud in clouds]),
            features,
            stack_frames([cloud.points for cloud in new_clouds]),
            rows,
        )

        num_vectors = rows.shape[1] * rows.shape[2]
        traces = [
            SetAbstractionTrace(
                name=self.name,
                gather=gather,
                layers=[
                    LayerTrace(
                        name=f"{self.name}.mlp",
                        num_vectors=num_vectors,
                        mac_ops=self.mlp.mac_count(num_vectors),
                        output_channels=self.mlp.out_features,
                    )
                ],
            )
            for gather in gathers
        ]
        return new_clouds, new_features, traces


class FeaturePropagation:
    """PointNet++ feature propagation (upsampling) layer for segmentation.

    Features of a coarse point set are interpolated back onto a denser set
    using inverse-distance weighting over the three nearest coarse points,
    then refined by a shared MLP (the standard PointNet++ FP layer).
    """

    def __init__(
        self,
        name: str,
        mlp_channels: Sequence[int],
        backend: Union[None, str, ComputeBackend] = None,
    ):
        self.name = name
        self.mlp = SharedMLP(list(mlp_channels), name=f"{name}.mlp")
        self.backend = resolve_backend(backend)

    # ------------------------------------------------------------------
    def forward_batch(
        self,
        dense_clouds: List[PointCloud],
        dense_features: Optional[np.ndarray],
        coarse_clouds: List[PointCloud],
        coarse_features: np.ndarray,
    ) -> Tuple[np.ndarray, List[LayerTrace]]:
        """Propagate features for a stack of B same-shaped frames.

        The three nearest coarse points are selected on squared distances
        (sqrt is monotone, so the selection is unchanged; the sqrt is paid
        only for the k kept entries that feed the inverse-distance weights
        -- the same convention as the FPS sampler) by the blocked
        :func:`repro.kernels.three_nearest`, frame by frame -- per-row
        selection is independent, so a frame's rows do not depend on its
        stack -- in ascending ``(sq_dist, index)`` order, which fixes the
        order the weighted terms are summed in; the refining MLP runs once
        over the stacked ``(B * N, C)`` operand, which the interpolation
        accumulates into neighbour by neighbour (no ``(N, 3, C)`` gather).
        ``dense_features`` / ``coarse_features`` are stacked ``(B, N, F)`` /
        ``(B, M, C)`` tensors; returns the stacked ``(B, N, C_out)`` output
        plus one per-frame trace.
        """
        num_frames = len(dense_clouds)
        num_dense = dense_clouds[0].num_points
        skip_channels = 0 if dense_features is None else dense_features.shape[-1]
        channels = skip_channels + coarse_features.shape[-1]
        if channels != self.mlp.in_features:
            raise ValueError(
                f"{self.name}: MLP expects {self.mlp.in_features} input "
                f"channels, got {channels}"
            )

        combined = np.empty((num_frames, num_dense, channels), dtype=np.float64)
        if dense_features is not None:
            combined[..., :skip_channels] = dense_features
        for frame in range(num_frames):
            interpolated = combined[frame, :, skip_channels:]
            features = coarse_features[frame]
            if features.shape[0] == 1:
                interpolated[:] = features
                continue
            nearest, near_sq = three_nearest(
                dense_clouds[frame].points, coarse_clouds[frame].points
            )
            weights = 1.0 / (np.sqrt(near_sq) + 1e-10)
            weights /= weights.sum(axis=1, keepdims=True)
            # ((w0*f0 + w1*f1) + w2*f2): the order sum(axis=1) over the
            # gathered (N, k, C) block would take.
            np.multiply(features[nearest[:, 0]], weights[:, 0:1], out=interpolated)
            for j in range(1, nearest.shape[1]):
                term = features[nearest[:, j]]
                term *= weights[:, j : j + 1]
                interpolated += term
        combined = combined.reshape(num_frames * num_dense, channels)
        refined = self.backend.apply(self.mlp, combined, num_frames)
        traces = [
            LayerTrace(
                name=f"{self.name}.mlp",
                num_vectors=num_dense,
                mac_ops=self.mlp.mac_count(num_dense),
                output_channels=self.mlp.out_features,
            )
            for _ in range(num_frames)
        ]
        return refined.reshape(num_frames, num_dense, -1), traces


class PointNet2Classification:
    """PointNet++ (SSG) shape classification -- ``Pointnet++(c)`` of Table I."""

    def __init__(
        self,
        num_classes: int = 40,
        input_feature_channels: int = 0,
        input_size: int = 1024,
        neighbors: int = 32,
        gatherer: Optional[Gatherer] = None,
        seed: int = 0,
        backend: Union[None, str, ComputeBackend] = None,
    ):
        self.num_classes = num_classes
        self.input_feature_channels = input_feature_channels
        self.input_size = input_size
        self.backend = resolve_backend(backend)
        sa1_centroids = max(1, input_size // 2)
        sa2_centroids = max(1, input_size // 8)
        self.sa1 = SetAbstraction(
            "sa1",
            sa1_centroids,
            neighbors,
            [3 + input_feature_channels, 64, 64, 128],
            gatherer=gatherer,
            seed=seed,
            backend=self.backend,
        )
        self.sa2 = SetAbstraction(
            "sa2",
            sa2_centroids,
            min(64, neighbors * 2),
            [3 + 128, 128, 128, 256],
            gatherer=gatherer,
            seed=seed + 1,
            backend=self.backend,
        )
        self.sa3 = SetAbstraction(
            "sa3",
            None,
            1,
            [3 + 256, 256, 512, 1024],
            gatherer=gatherer,
            seed=seed + 2,
            backend=self.backend,
        )
        self.fc1 = Dense(1024, 512, name="cls.fc1")
        self.fc2 = Dense(512, 256, name="cls.fc2")
        self.fc3 = Dense(256, num_classes, name="cls.fc3")
        self._relu = ReLU()

    def forward_batch(self, batch) -> List[ForwardResult]:
        """Forward a :class:`~repro.core.framebatch.FrameBatch` of frames.

        The three SA layers run stacked (one shared-MLP matmul per layer for
        the whole batch).  The classification head operates on one global
        feature vector per frame -- a single-row operand, which BLAS
        dispatches through its matrix-vector path -- so it runs per frame
        and a frame's logits do not depend on its stack.  Returns one
        :class:`ForwardResult` per frame.
        """
        clouds = list(batch.clouds)
        features = batch.features
        num_frames = len(clouds)

        clouds1, feat1, traces1 = self.sa1.forward_batch(clouds, features)
        clouds2, feat2, traces2 = self.sa2.forward_batch(clouds1, feat1)
        _clouds3, feat3, traces3 = self.sa3.forward_batch(clouds2, feat2)

        results: List[ForwardResult] = []
        for b in range(num_frames):
            head_traces: List[LayerTrace] = []
            x = feat3[b]  # (1, 1024): single-row head operand
            for fc in (self.fc1, self.fc2):
                x = self._relu(self.backend.apply(fc, x))
                head_traces.append(
                    LayerTrace(
                        name=fc.name,
                        num_vectors=x.shape[0],
                        mac_ops=fc.mac_count(x.shape[0]),
                        output_channels=fc.out_features,
                    )
                )
            logits = self.backend.apply(self.fc3, x)
            head_traces.append(
                LayerTrace(
                    name=self.fc3.name,
                    num_vectors=x.shape[0],
                    mac_ops=self.fc3.mac_count(x.shape[0]),
                    output_channels=self.fc3.out_features,
                )
            )
            results.append(
                ForwardResult(
                    logits=logits,
                    sa_traces=[traces1[b], traces2[b], traces3[b]],
                    head_traces=head_traces,
                )
            )
        return results


class PointNet2Segmentation:
    """PointNet++ (SSG) segmentation -- ``Pointnet++(ps)``/``(s)`` of Table I."""

    def __init__(
        self,
        num_classes: int = 13,
        input_feature_channels: int = 0,
        input_size: int = 4096,
        neighbors: int = 32,
        gatherer: Optional[Gatherer] = None,
        seed: int = 0,
        backend: Union[None, str, ComputeBackend] = None,
    ):
        self.num_classes = num_classes
        self.input_feature_channels = input_feature_channels
        self.input_size = input_size
        self.backend = resolve_backend(backend)
        sa1_centroids = max(1, input_size // 4)
        sa2_centroids = max(1, input_size // 16)
        self.sa1 = SetAbstraction(
            "sa1",
            sa1_centroids,
            neighbors,
            [3 + input_feature_channels, 64, 64, 128],
            gatherer=gatherer,
            seed=seed,
            backend=self.backend,
        )
        self.sa2 = SetAbstraction(
            "sa2",
            sa2_centroids,
            min(64, neighbors * 2),
            [3 + 128, 128, 128, 256],
            gatherer=gatherer,
            seed=seed + 1,
            backend=self.backend,
        )
        self.fp1 = FeaturePropagation(
            "fp1", [256 + 128, 256, 128], backend=self.backend
        )
        self.fp0 = FeaturePropagation(
            "fp0", [128 + input_feature_channels, 128, 128], backend=self.backend
        )
        self.head = Dense(128, num_classes, name="seg.head")

    def forward_batch(self, batch) -> List[ForwardResult]:
        """Forward a :class:`~repro.core.framebatch.FrameBatch` of frames.

        Both SA layers, both FP layers, and the per-point head run stacked:
        each underlying dense layer sees one ``(B * rows, C)`` operand, so
        the whole batch is one matmul per layer.  Returns one
        :class:`ForwardResult` per frame.
        """
        clouds = list(batch.clouds)
        features = batch.features
        num_frames = len(clouds)

        clouds1, feat1, traces1 = self.sa1.forward_batch(clouds, features)
        clouds2, feat2, traces2 = self.sa2.forward_batch(clouds1, feat1)

        up1, fp_traces1 = self.fp1.forward_batch(clouds1, feat1, clouds2, feat2)
        up0, fp_traces0 = self.fp0.forward_batch(clouds, features, clouds1, up1)

        num_dense = up0.shape[1]
        flat = up0.reshape(num_frames * num_dense, -1)
        logits = self.backend.apply(self.head, flat, num_frames).reshape(
            num_frames, num_dense, -1
        )

        results: List[ForwardResult] = []
        for b in range(num_frames):
            head_trace = LayerTrace(
                name=self.head.name,
                num_vectors=num_dense,
                mac_ops=self.head.mac_count(num_dense),
                output_channels=self.head.out_features,
            )
            results.append(
                ForwardResult(
                    logits=logits[b],
                    sa_traces=[traces1[b], traces2[b]],
                    head_traces=[fp_traces1[b], fp_traces0[b], head_trace],
                )
            )
        return results


def build_model_for_task(
    task: str,
    input_size: int,
    gatherer: Optional[Gatherer] = None,
    input_feature_channels: int = 0,
    neighbors: int = 32,
    seed: int = 0,
    backend: Union[None, str, ComputeBackend] = None,
):
    """Factory matching the Table I task names.

    ``task`` is one of ``"classification"``, ``"part_segmentation"``,
    ``"semantic_segmentation"``.  ``backend`` selects the compute backend
    executing the dense layers (``None`` = process default).
    """
    if task == "classification":
        return PointNet2Classification(
            num_classes=40,
            input_size=input_size,
            input_feature_channels=input_feature_channels,
            neighbors=neighbors,
            gatherer=gatherer,
            seed=seed,
            backend=backend,
        )
    if task == "part_segmentation":
        return PointNet2Segmentation(
            num_classes=50,
            input_size=input_size,
            input_feature_channels=input_feature_channels,
            neighbors=neighbors,
            gatherer=gatherer,
            seed=seed,
            backend=backend,
        )
    if task == "semantic_segmentation":
        return PointNet2Segmentation(
            num_classes=13,
            input_size=input_size,
            input_feature_channels=input_feature_channels,
            neighbors=neighbors,
            gatherer=gatherer,
            seed=seed,
            backend=backend,
        )
    raise ValueError(
        "task must be 'classification', 'part_segmentation' or "
        f"'semantic_segmentation'; got {task!r}"
    )
