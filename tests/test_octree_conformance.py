"""Degenerate-input conformance table for the octree side.

One table of awkward inputs -- one point, all-duplicate points (the
single-leaf octree), two duplicated points (two leaves, many ties), a
line, a plane, an integer lattice and coordinates near 1e9 -- at octree
depths 1, 3, 10 and ``MAX_DEPTH``.  Every cell holds a path to its frozen
reference, bit for bit:

* ``Octree.build_batch`` vs ``reference.build_octree_scalar``;
* ``OctreeTable.from_flat`` vs ``reference.octree_table_scalar``;
* OIS, exact and approximate, ``k == 1`` and ``k == n``, vs
  ``reference.ois_sample_scalar``;
* voxel-grid sampling at ``k == n`` vs ``reference.voxelgrid_sample_scalar``.

It also holds the samplers to their contract on the same inputs: FPS,
random and voxel-grid sampling return ``k`` distinct in-range indices at
``k == 1`` and ``k == n``, and every sampler rejects ``k == 0`` and
``k > n`` with ``ValueError``.  The octree orders all come from
``kernels.sort_codes``, so this table is what pins them on an older NumPy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.morton import MAX_DEPTH
from repro.geometry.pointcloud import PointCloud
from repro.kernels import reference as ref
from repro.octree.builder import Octree
from repro.octree.linear import OctreeTable
from repro.sampling.fps import FarthestPointSampler
from repro.sampling.ois import OctreeIndexedSampler
from repro.sampling.random_sampling import RandomSampler
from repro.sampling.voxel_grid_sampling import VoxelGridSampler

from test_flat_paths import tables_row_identical
from test_kernels import assert_octree_matches_scalar

DEPTHS = [1, 3, 10, MAX_DEPTH]


def _cloud(name: str) -> PointCloud:
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "one_point":
        points = np.array([[0.3, -0.7, 0.1]])
    elif name == "all_duplicates":
        points = np.tile([[1.5, 2.5, -3.5]], (64, 1))
    elif name == "two_points":
        points = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])[rng.integers(0, 2, 40)]
    elif name == "line":
        x = rng.permutation(np.linspace(-2.0, 3.0, 97))
        points = np.stack([x, np.full(97, 0.25), np.full(97, -1.0)], axis=1)
    elif name == "plane":
        xy = rng.uniform(-1.0, 1.0, size=(150, 2))
        points = np.concatenate([xy, np.full((150, 1), 0.5)], axis=1)
    elif name == "lattice":
        axis = np.arange(5, dtype=np.float64)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        points = rng.permutation(grid.reshape(-1, 3))
    elif name == "far_from_origin":
        points = np.array([1e9, -1e9, 1e9]) + rng.uniform(0.0, 1.0, size=(150, 3))
    else:
        raise KeyError(name)
    return PointCloud(points=np.ascontiguousarray(points, dtype=np.float64))


INPUTS = [
    "one_point",
    "all_duplicates",
    "two_points",
    "line",
    "plane",
    "lattice",
    "far_from_origin",
]
CLOUDS = {name: _cloud(name) for name in INPUTS}


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", INPUTS)
def test_build_batch_matches_scalar(name, depth):
    """Every frame of a batch equals the scalar insertion walk."""
    cloud = CLOUDS[name]
    for octree in Octree.build_batch([cloud, cloud], depth=depth):
        assert_octree_matches_scalar(octree, ref.build_octree_scalar(cloud, depth=depth))


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", INPUTS)
def test_table_matches_scalar(name, depth):
    """``from_flat`` equals the recursive walk, over the same octree and
    over the scalar octree build."""
    cloud = CLOUDS[name]
    octree = Octree.build(cloud, depth=depth)
    table = OctreeTable.from_flat(octree)
    tables_row_identical(table, ref.octree_table_scalar(octree))
    tables_row_identical(
        table, ref.octree_table_scalar(ref.build_octree_scalar(cloud, depth=depth))
    )
    assert len(table) == octree.num_nodes


@pytest.mark.parametrize("approximate", [False, True], ids=["exact", "approx"])
@pytest.mark.parametrize("k", ["1", "n"])
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", INPUTS)
def test_ois_matches_scalar(name, depth, k, approximate):
    """Same picks in the same order and the same counters."""
    cloud = CLOUDS[name]
    num_samples = 1 if k == "1" else cloud.num_points
    result = OctreeIndexedSampler(
        octree_depth=depth, approximate=approximate, seed=3
    ).sample(cloud, num_samples)
    indices, counters = ref.ois_sample_scalar(
        cloud, num_samples, octree_depth=depth, approximate=approximate, seed=3
    )
    np.testing.assert_array_equal(result.indices, indices)
    assert result.counters == counters
    assert result.indices.max() < cloud.num_points
    assert np.unique(result.indices).shape[0] == num_samples


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", INPUTS)
def test_voxelgrid_matches_scalar(name, depth):
    """``k == n`` takes the most-populated-voxel fill path on every input
    with fewer voxels than points."""
    cloud = CLOUDS[name]
    result = VoxelGridSampler(depth=depth).sample(cloud, cloud.num_points)
    expected = ref.voxelgrid_sample_scalar(
        cloud, cloud.num_points, result.info["depth"]
    )
    np.testing.assert_array_equal(result.indices, expected)


SAMPLERS = {
    "fps": lambda: FarthestPointSampler(seed=1),
    "random": lambda: RandomSampler(seed=1),
    "voxelgrid": lambda: VoxelGridSampler(seed=1),
    "ois": lambda: OctreeIndexedSampler(seed=1),
}


@pytest.mark.parametrize("k", ["1", "n"])
@pytest.mark.parametrize("sampler", ["fps", "random", "voxelgrid"])
@pytest.mark.parametrize("name", INPUTS)
def test_samplers_return_distinct_in_range_indices(name, sampler, k):
    cloud = CLOUDS[name]
    num_samples = 1 if k == "1" else cloud.num_points
    indices = np.asarray(SAMPLERS[sampler]().sample(cloud, num_samples).indices)
    assert indices.shape == (num_samples,)
    assert np.issubdtype(indices.dtype, np.integer)
    assert indices.min() >= 0 and indices.max() < cloud.num_points
    assert np.unique(indices).shape[0] == num_samples


@pytest.mark.parametrize("k", ["0", "n+1"])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_samplers_reject_k_outside_one_to_n(sampler, k):
    cloud = CLOUDS["lattice"]
    num_samples = 0 if k == "0" else cloud.num_points + 1
    with pytest.raises(ValueError):
        SAMPLERS[sampler]().sample(cloud, num_samples)
