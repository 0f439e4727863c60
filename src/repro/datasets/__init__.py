"""Synthetic point cloud datasets mirroring the paper's benchmarks.

The paper evaluates on ModelNet40, ShapeNet, S3DIS, and KITTI (Table I).
Those datasets are not redistributable inside this reproduction, so this
subpackage synthesises point cloud frames with the statistics that actually
matter to the evaluated methods: raw frame size, spatial distribution and
non-uniformity (which set the octree depth), the down-sampled input size,
and -- for KITTI -- per-frame timestamps that define the sensor generation
rate used by the real-time analysis of Section VII-E.  See DESIGN.md for the
substitution rationale.
"""

from repro.datasets.base import DatasetSpec, Frame, PointCloudDataset, TABLE1_BENCHMARKS, get_benchmark
from repro.datasets.kitti import KittiLikeDataset
from repro.datasets.lidar import LidarSensorModel
from repro.datasets.modelnet import ModelNetLikeDataset
from repro.datasets.s3dis import S3DISLikeDataset
from repro.datasets.shapenet import ShapeNetLikeDataset
from repro.datasets.synthetic import lidar_scene, sample_cad_shape

from repro import registry

registry.register("dataset", "modelnet40", ModelNetLikeDataset)
registry.register("dataset", "shapenet", ShapeNetLikeDataset)
registry.register("dataset", "s3dis", S3DISLikeDataset)
registry.register("dataset", "kitti", KittiLikeDataset)

__all__ = [
    "DatasetSpec",
    "Frame",
    "KittiLikeDataset",
    "LidarSensorModel",
    "ModelNetLikeDataset",
    "PointCloudDataset",
    "S3DISLikeDataset",
    "ShapeNetLikeDataset",
    "TABLE1_BENCHMARKS",
    "get_benchmark",
    "lidar_scene",
    "sample_cad_shape",
]
