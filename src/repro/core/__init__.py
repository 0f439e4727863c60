"""Core abstractions: configuration, operation counters, and the engines.

The two engines mirror Figure 1(b) / Figure 4 of the paper:

* :class:`~repro.core.engine.PreprocessingEngine` = Octree-build Unit (CPU)
  + Down-sampling Unit (FPGA) running the OIS method.
* :class:`~repro.core.engine.InferenceEngine` = Data Structuring Unit +
  Feature Computation Unit (both on the FPGA).
* :class:`repro.session.Session` wires them together into the end-to-end
  service evaluated in Section VII-E; :mod:`repro.core.pipeline` holds its
  result types.
"""

from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
    SystemConfig,
)
from repro.core.engine import InferenceEngine, PreprocessingEngine
from repro.core.metrics import LatencyBreakdown, OpCounters, PhaseLatency
from repro.core.pipeline import EndToEndResult

from repro import registry

registry.register("engine", "preprocessing", PreprocessingEngine)
registry.register("engine", "inference", InferenceEngine)

__all__ = [
    "EndToEndResult",
    "HgPCNConfig",
    "InferenceEngine",
    "InferenceEngineConfig",
    "LatencyBreakdown",
    "OpCounters",
    "PhaseLatency",
    "PreprocessingConfig",
    "PreprocessingEngine",
    "SystemConfig",
]
