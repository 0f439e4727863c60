"""Minimal neural-network layers in numpy.

PointNet++'s feature computation decomposes entirely into matrix-vector
multiplications (shared MLPs applied point-wise), batch normalisation, ReLU,
and max pooling (Section II-A / VI of the paper: "The feature computation
step can be decomposed into MVM").  Each layer here is a small callable that
also reports the number of multiply-accumulate operations it performed, which
is the quantity the Feature Computation Unit's systolic-array model consumes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class Dense:
    """Fully connected layer ``y = x W + b`` applied to the last axis."""

    in_features: int
    out_features: int
    weight: np.ndarray = field(default=None, repr=False)
    bias: np.ndarray = field(default=None, repr=False)
    name: str = "dense"

    def __post_init__(self) -> None:
        if self.in_features <= 0 or self.out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        if self.weight is None:
            self.weight = _glorot(
                (self.in_features, self.out_features), self.name
            )
        if self.bias is None:
            self.bias = np.zeros(self.out_features)
        if self.weight.shape != (self.in_features, self.out_features):
            raise ValueError("weight shape does not match layer dimensions")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected last dim {self.in_features}, "
                f"got {x.shape[-1]}"
            )
        return x @ self.weight + self.bias

    def mac_count(self, num_vectors: int) -> int:
        """MACs for applying the layer to ``num_vectors`` input vectors."""
        return num_vectors * self.in_features * self.out_features


@dataclass
class BatchNorm:
    """Inference-time batch normalisation over the last axis."""

    num_features: int
    gamma: np.ndarray = field(default=None, repr=False)
    beta: np.ndarray = field(default=None, repr=False)
    running_mean: np.ndarray = field(default=None, repr=False)
    running_var: np.ndarray = field(default=None, repr=False)
    eps: float = 1e-5

    def __post_init__(self) -> None:
        if self.gamma is None:
            self.gamma = np.ones(self.num_features)
        if self.beta is None:
            self.beta = np.zeros(self.num_features)
        if self.running_mean is None:
            self.running_mean = np.zeros(self.num_features)
        if self.running_var is None:
            self.running_var = np.ones(self.num_features)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        return (x - self.running_mean) * scale + self.beta


class ReLU:
    """Rectified linear unit."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


@dataclass
class SharedMLP:
    """A stack of Dense + BatchNorm + ReLU applied point-wise.

    This is the "shared MLP" / 1x1 convolution of PointNet++: the same small
    network is applied to every point (or every gathered neighbor) of the
    input feature map, which is exactly the workload a systolic-array DLA
    executes as a batched MVM.
    """

    channels: List[int]
    name: str = "shared_mlp"
    use_batchnorm: bool = True
    final_activation: bool = True
    layers: List[Dense] = field(default_factory=list, repr=False)
    norms: List[Optional[BatchNorm]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if len(self.channels) < 2:
            raise ValueError("channels must list at least input and one output")
        if not self.layers:
            for i in range(len(self.channels) - 1):
                self.layers.append(
                    Dense(
                        in_features=self.channels[i],
                        out_features=self.channels[i + 1],
                        name=f"{self.name}.dense{i}",
                    )
                )
                self.norms.append(
                    BatchNorm(self.channels[i + 1]) if self.use_batchnorm else None
                )
        self._relu = ReLU()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            out = layer(out)
            if self.norms[i] is not None:
                out = self.norms[i](out)
            if i < last or self.final_activation:
                out = self._relu(out)
        return out

    def mac_count(self, num_vectors: int) -> int:
        return sum(layer.mac_count(num_vectors) for layer in self.layers)

    @property
    def in_features(self) -> int:
        return self.channels[0]

    @property
    def out_features(self) -> int:
        return self.channels[-1]


def _glorot(shape: tuple[int, int], name: str) -> np.ndarray:
    """Deterministic Glorot-uniform initialisation keyed by the layer name.

    The seed is a CRC of the name, not ``hash(name)``: string hashes are
    salted per interpreter, and spawned workers, other hosts and other runs
    must all build the same weights.
    """
    seed = zlib.crc32(name.encode())
    rng = np.random.default_rng(seed)
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
