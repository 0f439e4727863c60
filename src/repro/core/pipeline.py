"""Result types of the end-to-end HgPCN pipeline (pre-processing + inference).

:class:`EndToEndResult` is one frame through both engines;
:class:`SequenceResult` is the system-level, real-time evaluation of Section
VII-E: a timestamped frame sequence and whether the service keeps up with
the sensor's data generation rate.  :class:`repro.session.Session` produces
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.engine import InferenceExecution, PreprocessingSummary
from repro.core.metrics import LatencyBreakdown
from repro.datasets.lidar import ServiceTrace


@dataclass
class EndToEndResult:
    """Per-frame result of the full HgPCN pipeline: what a response carries.

    ``preprocessing`` is the response-side summary, not the engine's
    :class:`~repro.core.engine.PreprocessingResult`: the octree and
    Octree-Table are the pipeline's working set and are dropped as soon as
    the frame is down-sampled (ask the engine for them, see
    :meth:`~repro.core.engine.PreprocessingEngine.process`).
    """

    frame_id: str
    preprocessing: PreprocessingSummary
    inference: InferenceExecution
    breakdown: LatencyBreakdown

    def total_seconds(self) -> float:
        return self.breakdown.total_seconds()

    @property
    def preprocessing_seconds(self) -> float:
        return self.breakdown.seconds_for("preprocessing")

    @property
    def inference_seconds(self) -> float:
        return self.breakdown.seconds_for("inference")


@dataclass
class SequenceResult:
    """Result of processing a whole frame sequence (Section VII-E)."""

    frame_results: List[EndToEndResult]
    service_trace: Optional[ServiceTrace] = None
    #: Whether cross-frame pipelining was modelled (see
    #: :meth:`repro.session.Session.run_sequence`).
    pipelined: bool = False

    def frame_latencies(self) -> List[float]:
        """Per-frame latency as seen by the arrival queue.

        Without pipelining this is the serial pre-processing + inference time
        of each frame.  With pipelining the CPU-side octree build of the next
        frame overlaps the FPGA-side inference of the current one, so the
        steady-state per-frame occupancy is the maximum of the two phases.
        """
        latencies = []
        for i, result in enumerate(self.frame_results):
            if self.pipelined and i > 0:
                latencies.append(
                    max(result.preprocessing_seconds, result.inference_seconds)
                )
            else:
                latencies.append(result.total_seconds())
        return latencies

    def mean_frame_seconds(self) -> float:
        if not self.frame_results:
            return 0.0
        return float(np.mean(self.frame_latencies()))

    def achieved_fps(self) -> float:
        mean = self.mean_frame_seconds()
        return float("inf") if mean == 0 else 1.0 / mean

    def keeps_up_with_sensor(self) -> bool:
        if self.service_trace is None:
            return True
        return self.service_trace.keeps_up()
