"""Shared fixtures for the test suite.

All fixtures generate small clouds (hundreds to a few thousand points) so
the functional algorithms stay fast; paper-scale behaviour is covered by the
analytic counter models, which are exercised separately.

Every test also runs under a wall-clock alarm (:func:`_fail_on_hang`), so a
hang fails the test that hung, by name, instead of stalling the suite.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.geometry.pointcloud import PointCloud
from repro.datasets.synthetic import lidar_scene, sample_cad_shape

from clouds import gaussian_clusters

#: Seconds a test may run before SIGALRM fails it.  Well past CI's
#: ``faulthandler_timeout=120``, which dumps every thread's stack first.
TEST_TIMEOUT_SECONDS = 300


@pytest.fixture(autouse=True)
def _fail_on_hang(request):
    """Fail the running test if it is still running after
    :data:`TEST_TIMEOUT_SECONDS`.

    The alarm is armed on the main thread only (signals are delivered
    there) and the previous handler is restored afterwards.  A forked pool
    child does not inherit the pending alarm.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_alarm(signum, frame):
        pytest.fail(
            f"{request.node.nodeid} still running after "
            f"{TEST_TIMEOUT_SECONDS} s"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_cloud(rng) -> PointCloud:
    """A 200-point uniform cloud."""
    return PointCloud(points=rng.uniform(-1, 1, size=(200, 3)))


@pytest.fixture
def medium_cloud(rng) -> PointCloud:
    """A 2000-point clustered cloud (non-uniform occupancy)."""
    return gaussian_clusters(2000, num_clusters=6, seed=7)


@pytest.fixture
def cad_cloud() -> PointCloud:
    """A CAD-style surface cloud (ModelNet regime)."""
    return sample_cad_shape(1500, shape="box", non_uniformity=0.3, seed=3)


@pytest.fixture
def lidar_cloud() -> PointCloud:
    """A small LiDAR-style scene with an intensity feature channel."""
    return lidar_scene(3000, num_objects=5, seed=5)


@pytest.fixture
def featured_cloud(rng) -> PointCloud:
    """A cloud carrying a 4-channel feature vector per point."""
    points = rng.uniform(0, 1, size=(300, 3))
    features = rng.normal(size=(300, 4))
    return PointCloud(points=points, features=features)


@pytest.fixture
def degenerate_clouds() -> dict:
    """Clouds whose extent collapses: one point, all duplicates, a plane
    (z = 0) and a line (y = z = 0)."""
    rng = np.random.default_rng(21)
    plane = rng.uniform(-1, 1, size=(600, 3))
    plane[:, 2] = 0.0
    line = rng.uniform(-1, 1, size=(600, 3))
    line[:, 1:] = 0.0
    point = np.array([[0.3, -2.0, 5.0]])
    return {
        "one_point": PointCloud(points=point),
        "all_duplicates": PointCloud(points=np.tile(point, (500, 1))),
        "plane_z0": PointCloud(points=plane),
        "line_y0_z0": PointCloud(points=line),
    }
