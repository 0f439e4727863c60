"""End-to-end latency breakdown analysis (the Figure 3 motivation study).

For each Table I benchmark, estimate how the end-to-end latency of a
general-purpose platform (CPU or GPU) splits between the FPS pre-processing
phase and the PointNet++ inference phase.  The paper's observation -- that
pre-processing dominates, increasingly so for larger raw frames -- follows
directly from the workload counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.accelerators.base import InferenceWorkloadSpec
from repro.accelerators.cpu import CPUExecutor
from repro.accelerators.gpu import GPUExecutor
from repro.datasets.base import DatasetSpec, get_benchmark


@dataclass
class EndToEndBreakdown:
    """Pre-processing vs inference share of one benchmark on one platform."""

    benchmark: str
    platform: str
    raw_points: int
    input_size: int
    preprocessing_seconds: float
    inference_seconds: float

    def total_seconds(self) -> float:
        return self.preprocessing_seconds + self.inference_seconds

    def preprocessing_fraction(self) -> float:
        total = self.total_seconds()
        return 0.0 if total == 0 else self.preprocessing_seconds / total

    def inference_fraction(self) -> float:
        total = self.total_seconds()
        return 0.0 if total == 0 else self.inference_seconds / total


def e2e_breakdown_for_benchmark(
    benchmark: str,
    platform: str = "cpu",
    raw_points: Optional[int] = None,
    preprocessing_method: str = "fps",
) -> EndToEndBreakdown:
    """Estimate the Figure 3 breakdown for one benchmark.

    ``platform`` is ``"cpu"`` (Xeon W-2255) or ``"gpu"`` (RTX 4060 Ti), the
    two devices the paper's motivation study uses.  The pre-processing phase
    runs FPS on the raw frame; the inference phase runs PointNet++ (including
    its brute-force data structuring) on the down-sampled input.
    """
    spec: DatasetSpec = get_benchmark(benchmark)
    raw = raw_points or spec.raw_points_typical
    workload = InferenceWorkloadSpec(
        dataset=spec.name,
        task=spec.task,
        input_size=spec.input_size,
        neighbors=32,
    )

    if platform == "cpu":
        executor = CPUExecutor()
        pre = executor.preprocessing_seconds(
            raw, spec.input_size, method=preprocessing_method
        )
        inf = executor.inference_report(workload).total_seconds()
    elif platform == "gpu":
        executor = GPUExecutor(profile="rtx_4060ti")
        pre = executor.preprocessing_seconds(
            raw, spec.input_size, method=preprocessing_method
        )
        inf = executor.inference_report(workload).total_seconds()
    else:
        raise ValueError("platform must be 'cpu' or 'gpu'")

    return EndToEndBreakdown(
        benchmark=spec.name,
        platform=platform,
        raw_points=raw,
        input_size=spec.input_size,
        preprocessing_seconds=pre,
        inference_seconds=inf,
    )
