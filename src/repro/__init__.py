"""repro -- a reproduction of HgPCN (MICRO 2024).

HgPCN is an end-to-end heterogeneous architecture for embedded point cloud
inference.  This package reimplements, from scratch in Python, the paper's
two contributions -- Octree-Indexed Sampling (OIS) for the pre-processing
phase and Voxel-Expanded Gathering (VEG) for the data structuring step of
the inference phase -- together with every substrate they depend on: the
octree spatial index, the samplers and neighbor-gathering baselines, a numpy
PointNet++, analytic hardware cost models of the CPU/GPU/FPGA platforms and
of the PointACC and Mesorasi accelerators, and synthetic datasets with the
statistics of the paper's four benchmarks.

The serving entry point is the :class:`~repro.session.Session`, which keeps
constructed networks, gatherers, and samplers warm across frames; components
are addressed by string names through :mod:`repro.registry`.

Quick start::

    from repro import HgPCNConfig, Session
    from repro.datasets import KittiLikeDataset

    dataset = KittiLikeDataset(num_frames=2, scale=0.01)
    session = Session(config=HgPCNConfig.for_task(input_size=1024),
                      task="semantic_segmentation")
    response = session.run(dataset.generate_frame(0))
    print(response.result.breakdown.as_dict())

See DESIGN.md for the architecture (registry, session, engines);
``python benchmarks/run_all.py --exhibits`` prints the paper-vs-measured
tables, and the default mode benchmarks the vectorized kernels against
their scalar references (``BENCH_kernels.json``).
"""

from repro import registry
from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
    SystemConfig,
)
from repro.core.engine import InferenceEngine, PreprocessingEngine
from repro.core.metrics import LatencyBreakdown, OpCounters
from repro.core.pipeline import EndToEndResult
from repro.geometry.pointcloud import PointCloud
from repro.registry import available, create
from repro.session import BatchResult, FrameRequest, FrameResponse, Session

__version__ = "1.1.0"

__all__ = [
    "BatchResult",
    "EndToEndResult",
    "FrameRequest",
    "FrameResponse",
    "HgPCNConfig",
    "InferenceEngine",
    "InferenceEngineConfig",
    "LatencyBreakdown",
    "OpCounters",
    "PointCloud",
    "PreprocessingConfig",
    "PreprocessingEngine",
    "Session",
    "SystemConfig",
    "available",
    "create",
    "registry",
    "__version__",
]
