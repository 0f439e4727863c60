"""Synthetic point cloud generators.

These routines synthesise the geometric regimes that drive the paper's
workload characteristics:

* **CAD-style surface shapes** (ModelNet/ShapeNet regime): points sampled on
  the surface of parametric solids, with controllable non-uniformity (the
  property that deepens the octree -- the piano-vs-plant observation of
  Figure 11).
* **Indoor scenes** (S3DIS regime): rooms composed of planar surfaces (floor,
  walls, furniture boxes) with clutter.
* **Outdoor LiDAR scenes** (KITTI regime): a ground plane plus scattered
  objects seen by a rotating multi-beam scanner with range-dependent density
  and occlusion-style irregularity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.pointcloud import PointCloud


def _surface_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True) + 1e-12
    return direction * 0.5


def _surface_box(rng: np.random.Generator, n: int) -> np.ndarray:
    face = rng.integers(6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    points = np.zeros((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, -0.5, 0.5)
    other = [(1, 2), (0, 2), (0, 1)]
    for a in range(3):
        mask = axis == a
        points[mask, a] = sign[mask]
        points[mask, other[a][0]] = uv[mask, 0]
        points[mask, other[a][1]] = uv[mask, 1]
    return points


def _surface_cylinder(rng: np.random.Generator, n: int) -> np.ndarray:
    theta = rng.uniform(0, 2 * np.pi, size=n)
    z = rng.uniform(-0.5, 0.5, size=n)
    return np.stack([0.35 * np.cos(theta), 0.35 * np.sin(theta), z], axis=1)


_SHAPES = {
    "sphere": _surface_sphere,
    "box": _surface_box,
    "cylinder": _surface_cylinder,
}


def sample_cad_shape(
    num_points: int,
    shape: str = "sphere",
    non_uniformity: float = 0.0,
    noise: float = 0.005,
    seed: int = 0,
) -> PointCloud:
    """Sample points on the surface of a parametric CAD-style shape.

    ``non_uniformity`` in [0, 1) biases the sampling density towards one pole
    of the shape, producing the unbalanced octrees the paper attributes to
    objects like ``MN.piano``; 0 gives uniform surface density
    (``MN.plant``-style).
    """
    if shape not in _SHAPES:
        raise ValueError(f"shape must be one of {sorted(_SHAPES)}")
    if not 0 <= non_uniformity < 1:
        raise ValueError("non_uniformity must be in [0, 1)")
    rng = np.random.default_rng(seed)
    # Oversample, then keep points with probability biased along +z to create
    # the requested density skew.
    oversample = int(num_points * 2.5) + 16
    surface = _SHAPES[shape](rng, oversample)
    if non_uniformity > 0:
        z = surface[:, 2]
        z_norm = (z - z.min()) / (np.ptp(z) + 1e-12)
        keep_prob = (1 - non_uniformity) + non_uniformity * z_norm**3
        keep = rng.uniform(size=oversample) < keep_prob
        surface = surface[keep]
    if surface.shape[0] < num_points:
        # Top up with uniform surface samples to reach the requested count.
        extra = _SHAPES[shape](rng, num_points - surface.shape[0])
        surface = np.concatenate([surface, extra], axis=0)
    surface = surface[:num_points]
    surface = surface + rng.normal(scale=noise, size=surface.shape)
    return PointCloud(points=surface)


def indoor_room(
    num_points: int,
    room_size: Sequence[float] = (8.0, 6.0, 3.0),
    num_furniture: int = 6,
    clutter_fraction: float = 0.1,
    seed: int = 0,
) -> PointCloud:
    """An S3DIS-style room: floor, walls, ceiling, and box furniture."""
    rng = np.random.default_rng(seed)
    sx, sy, sz = room_size
    budgets = _split_budget(
        num_points, [0.3, 0.25, 0.1, 0.25, clutter_fraction], rng
    )
    parts = []

    floor = np.stack(
        [
            rng.uniform(0, sx, budgets[0]),
            rng.uniform(0, sy, budgets[0]),
            np.zeros(budgets[0]),
        ],
        axis=1,
    )
    parts.append(floor)
    walls = []
    for i in range(budgets[1]):
        wall = i % 4
        if wall == 0:
            walls.append([rng.uniform(0, sx), 0.0, rng.uniform(0, sz)])
        elif wall == 1:
            walls.append([rng.uniform(0, sx), sy, rng.uniform(0, sz)])
        elif wall == 2:
            walls.append([0.0, rng.uniform(0, sy), rng.uniform(0, sz)])
        else:
            walls.append([sx, rng.uniform(0, sy), rng.uniform(0, sz)])
    parts.append(np.asarray(walls).reshape(-1, 3))
    ceiling = np.stack(
        [
            rng.uniform(0, sx, budgets[2]),
            rng.uniform(0, sy, budgets[2]),
            np.full(budgets[2], sz),
        ],
        axis=1,
    )
    parts.append(ceiling)

    furniture_points = []
    per_item = max(1, budgets[3] // max(1, num_furniture))
    for _ in range(num_furniture):
        center = np.array(
            [rng.uniform(1, sx - 1), rng.uniform(1, sy - 1), 0.0]
        )
        dims = rng.uniform(0.4, 1.5, size=3)
        box = _surface_box(rng, per_item) * dims + center + [0, 0, dims[2] / 2]
        furniture_points.append(box)
    if furniture_points:
        parts.append(np.concatenate(furniture_points, axis=0))

    clutter = np.stack(
        [
            rng.uniform(0, sx, budgets[4]),
            rng.uniform(0, sy, budgets[4]),
            rng.uniform(0, sz, budgets[4]),
        ],
        axis=1,
    )
    parts.append(clutter)

    points = np.concatenate(parts, axis=0)
    points = points + rng.normal(scale=0.01, size=points.shape)
    points = points[:num_points] if points.shape[0] >= num_points else _pad(
        points, num_points, rng
    )
    return PointCloud(points=points)


def lidar_scene(
    num_points: int,
    num_beams: int = 64,
    max_range: float = 80.0,
    num_objects: int = 12,
    seed: int = 0,
) -> PointCloud:
    """A KITTI-style outdoor LiDAR sweep.

    A rotating ``num_beams``-channel scanner over a ground plane with
    scattered box-shaped objects (vehicles).  Point density falls off with
    range, and per-frame point counts are irregular because objects at
    different ranges return different numbers of points -- the two properties
    the paper highlights for raw LiDAR data.
    """
    rng = np.random.default_rng(seed)
    budgets = _split_budget(num_points, [0.75, 0.2, 0.05], rng)

    # Ground returns: azimuth uniform, range drawn with a 1/r-style falloff so
    # near field is denser, as real scans are.
    azimuth = rng.uniform(0, 2 * np.pi, budgets[0])
    ranges = max_range * rng.power(2.5, budgets[0])
    ground = np.stack(
        [
            ranges * np.cos(azimuth),
            ranges * np.sin(azimuth),
            rng.normal(scale=0.03, size=budgets[0]),
        ],
        axis=1,
    )

    # Object returns: boxes at random positions; closer objects get more
    # points (inverse-square with range).
    object_points = []
    centers = np.stack(
        [
            rng.uniform(-max_range * 0.6, max_range * 0.6, num_objects),
            rng.uniform(-max_range * 0.6, max_range * 0.6, num_objects),
            np.zeros(num_objects),
        ],
        axis=1,
    )
    distances = np.linalg.norm(centers[:, :2], axis=1) + 1.0
    weights = (1.0 / distances**2)
    weights /= weights.sum()
    counts = rng.multinomial(budgets[1], weights)
    for center, count in zip(centers, counts):
        if count == 0:
            continue
        dims = np.array(
            [rng.uniform(1.5, 4.5), rng.uniform(1.5, 2.2), rng.uniform(1.2, 2.0)]
        )
        box = _surface_box(rng, int(count)) * dims + center + [0, 0, dims[2] / 2]
        object_points.append(box)
    objects = (
        np.concatenate(object_points, axis=0)
        if object_points
        else np.zeros((0, 3))
    )

    # Sparse high returns (poles, vegetation).
    sparse = np.stack(
        [
            rng.uniform(-max_range, max_range, budgets[2]),
            rng.uniform(-max_range, max_range, budgets[2]),
            rng.uniform(0, 6.0, budgets[2]),
        ],
        axis=1,
    )

    points = np.concatenate([ground, objects, sparse], axis=0)
    # Vertical beam quantisation: snap elevations into num_beams rings for the
    # ground points to mimic scan lines.
    ring = rng.integers(num_beams, size=points.shape[0])
    points[:, 2] += (ring - num_beams / 2) * 0.002
    points = points[:num_points] if points.shape[0] >= num_points else _pad(
        points, num_points, rng
    )
    # Intensity feature channel, range dependent.
    intensity = np.clip(
        1.0 - np.linalg.norm(points[:, :2], axis=1) / max_range, 0.0, 1.0
    )[:, None]
    return PointCloud(points=points, features=intensity)


# ----------------------------------------------------------------------
def _split_budget(
    total: int, fractions: Sequence[float], rng: np.random.Generator
) -> list[int]:
    fractions = np.asarray(fractions, dtype=float)
    fractions = fractions / fractions.sum()
    counts = np.floor(fractions * total).astype(int)
    while counts.sum() < total:
        counts[rng.integers(len(counts))] += 1
    return counts.tolist()


def _pad(points: np.ndarray, target: int, rng: np.random.Generator) -> np.ndarray:
    deficit = target - points.shape[0]
    if deficit <= 0:
        return points
    extra = points[rng.integers(points.shape[0], size=deficit)]
    extra = extra + rng.normal(scale=0.01, size=extra.shape)
    return np.concatenate([points, extra], axis=0)
