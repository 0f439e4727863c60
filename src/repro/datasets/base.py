"""Dataset abstractions and the Table I benchmark registry."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.geometry.pointcloud import PointCloud


@dataclass
class Frame:
    """One raw point cloud frame plus its metadata."""

    cloud: PointCloud
    frame_id: str
    timestamp: Optional[float] = None
    labels: Optional[np.ndarray] = None

    @property
    def num_points(self) -> int:
        return self.cloud.num_points


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one benchmark row of Table I.

    Attributes
    ----------
    name:
        Dataset name used in figures ("ModelNet40", "ShapeNet", ...).
    application:
        The application column of Table I.
    task:
        Task key understood by :func:`repro.network.pointnet2.build_model_for_task`.
    input_size:
        Down-sampled input size fed to the PCN (the "input Size" column).
    model:
        Model name string of Table I.
    raw_points_typical:
        Typical raw frame size at paper scale (used by analytic counters).
    raw_points_range:
        (min, max) raw frame sizes at paper scale.
    num_classes:
        Output classes of the task.
    frame_rate_hz:
        Sensor frame generation rate where applicable (KITTI's LiDAR runs at
        10 Hz); ``None`` for CAD-style datasets with no real-time source.
    """

    name: str
    application: str
    task: str
    input_size: int
    model: str
    raw_points_typical: int
    raw_points_range: tuple[int, int]
    num_classes: int
    frame_rate_hz: Optional[float] = None


#: The four benchmark rows of Table I.
TABLE1_BENCHMARKS: Dict[str, DatasetSpec] = {
    "modelnet40": DatasetSpec(
        name="ModelNet40",
        application="Object Classification",
        task="classification",
        input_size=1024,
        model="Pointnet++(c)",
        raw_points_typical=120_000,
        raw_points_range=(60_000, 400_000),
        num_classes=40,
    ),
    "shapenet": DatasetSpec(
        name="ShapeNet",
        application="Part Segmentation",
        task="part_segmentation",
        input_size=2048,
        model="Pointnet++(ps)",
        raw_points_typical=2_800,
        raw_points_range=(2_048, 4_096),
        num_classes=50,
    ),
    "s3dis": DatasetSpec(
        name="S3DIS",
        application="Indoor Segmentation",
        task="semantic_segmentation",
        input_size=4096,
        model="Pointnet++(s)",
        raw_points_typical=300_000,
        raw_points_range=(100_000, 900_000),
        num_classes=13,
    ),
    "kitti": DatasetSpec(
        name="KITTI",
        application="Outdoor Segmentation",
        task="semantic_segmentation",
        input_size=16_384,
        model="Pointnet++(s)",
        raw_points_typical=1_200_000,
        raw_points_range=(1_000_000, 10_000_000),
        num_classes=13,
        frame_rate_hz=10.0,
    ),
}


def get_benchmark(name: str) -> DatasetSpec:
    """Look up a Table I benchmark by (case-insensitive) name."""
    key = name.lower()
    if key not in TABLE1_BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(TABLE1_BENCHMARKS)}"
        )
    return TABLE1_BENCHMARKS[key]


class PointCloudDataset(abc.ABC):
    """A generator of raw point cloud frames for one benchmark."""

    #: The Table I row this dataset instantiates.
    spec: DatasetSpec

    def __init__(self, num_frames: int = 8, seed: int = 0, scale: float = 1.0):
        """
        Parameters
        ----------
        num_frames:
            Number of frames the dataset yields.
        seed:
            Base RNG seed; frame ``i`` uses ``seed + i``.
        scale:
            Fraction of the paper-scale raw frame size to actually generate.
            The functional algorithms run on the generated points; analytic
            counters use the spec's paper-scale sizes.  ``scale=1.0``
            generates full-size frames.
        """
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if not 0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self.num_frames = num_frames
        self.seed = seed
        self.scale = scale

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def generate_frame(self, index: int) -> Frame:
        """Generate frame ``index`` deterministically."""

    def __iter__(self) -> Iterator[Frame]:
        for i in range(self.num_frames):
            yield self.generate_frame(i)

    def frames(self) -> List[Frame]:
        return list(iter(self))

    def _scaled_points(self, raw_points: int) -> int:
        return max(64, int(round(raw_points * self.scale)))

    def _frame_raw_size(self, rng: np.random.Generator) -> int:
        low, high = self.spec.raw_points_range
        return int(rng.integers(low, high + 1))
