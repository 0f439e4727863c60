"""The two HgPCN engines (Figure 4).

:class:`PreprocessingEngine` executes the pre-processing phase of one frame:
octree construction and host-memory reorganisation on the CPU (Octree-build
Unit), Octree-Table transfer over MMIO, and OIS down-sampling in the FPGA
Down-sampling Unit.  It produces the down-sampled input cloud *and* the
latency/memory estimates of the phase.

:class:`InferenceEngine` executes the inference phase: VEG-based data
structuring in the DSU and PointNet++ feature computation in the FCU.  The
functional forward pass produces real logits; the latency model replays its
measured gather statistics on the hardware cost models.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import HgPCNConfig
from repro.core.framebatch import FrameBatch
from repro.core.metrics import LatencyBreakdown
from repro.accelerators.hgpcn import HgPCNInferenceAccelerator
from repro.accelerators.base import (
    InferenceAccelerator,
    InferenceReport,
    InferenceWorkloadSpec,
)
from repro.datastructuring.base import Gatherer
from repro.datastructuring.veg import VoxelExpandedGatherer
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxelgrid import suggest_depth
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.memory import OnChipMemoryModel, ois_onchip_megabits
from repro.hardware.octree_build_unit import OctreeBuildUnit
from repro.hardware.sampling_module import DownSamplingUnit
from repro.network.backends import resolve_backend
from repro.network.pointnet2 import ForwardResult, build_model_for_task
from repro.network.workload import NetworkWorkload, extract_workload
from repro.octree.builder import Octree, OctreeSummary
from repro.octree.linear import OctreeTable
from repro.sampling.base import Sampler, SamplingResult


def _accepts_keyword(func: Any, name: str) -> bool:
    """Whether ``func`` accepts keyword argument ``name`` (incl. ``**kwargs``)."""
    try:
        parameters = inspect.signature(func).parameters
    except (TypeError, ValueError):
        return False
    if name in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


@dataclass
class PreprocessingSummary:
    """What a served response keeps of one frame's pre-processing.

    The *response's* record (``EndToEndResult.preprocessing``): the
    down-sampled cloud, the sampling indices and counters, the modelled
    latency, and the octree / Octree-Table reduced to their counts.  The
    octree and table themselves are the engine's working set and stay
    behind; ``PreprocessingEngine.process(cloud)`` recomputes them
    deterministically, bit-identical to what this record was reduced from.
    """

    sampled: PointCloud
    sampling: SamplingResult
    octree: OctreeSummary
    octree_table_entries: int
    octree_table_bits: int
    breakdown: LatencyBreakdown
    onchip_megabits: float

    def total_seconds(self) -> float:
        return self.breakdown.total_seconds()


@dataclass
class PreprocessingResult:
    """Output of the Pre-processing Engine for one frame.

    The *engine's* output: it holds the full octree, and the Octree-Table
    (the Down-sampling Unit's working set, ~8 MB on a 100k-point frame) on
    first access of :attr:`octree_table`.  The engine prices the table from
    its counts and never builds it.  A :class:`~repro.session.Session`
    keeps only its :meth:`summary` in the response.
    """

    sampled: PointCloud
    sampling: SamplingResult
    octree: Octree
    octree_table_entries: int
    octree_table_bits: int
    breakdown: LatencyBreakdown
    onchip_megabits: float

    @cached_property
    def octree_table(self) -> OctreeTable:
        """The frame's Octree-Table, built on first access."""
        return OctreeTable.from_flat(self.octree)

    def total_seconds(self) -> float:
        return self.breakdown.total_seconds()

    def summary(self) -> PreprocessingSummary:
        """The array-light record of this frame that a response carries."""
        return PreprocessingSummary(
            sampled=self.sampled,
            sampling=self.sampling,
            octree=self.octree.summary(),
            octree_table_entries=self.octree_table_entries,
            octree_table_bits=self.octree_table_bits,
            breakdown=self.breakdown,
            onchip_megabits=self.onchip_megabits,
        )


@dataclass
class PreprocessingEngine:
    """Octree-build Unit (CPU) + Down-sampling Unit (FPGA).

    The down-sampling method is pluggable via the component registry:
    ``sampler_name`` is resolved with ``registry.create("sampler", ...)``
    (default: the paper's OIS).  Constructed samplers are cached per octree
    depth, so a warm engine serving a stream of same-sized frames does not
    rebuild its sampler per frame.  The latency breakdown always models the
    paper's hardware Down-sampling Unit; swapping the functional sampler
    changes which points survive, not the hardware being modelled.
    """

    config: HgPCNConfig = field(default_factory=HgPCNConfig)
    octree_build_unit: OctreeBuildUnit = field(default_factory=OctreeBuildUnit)
    downsampling_unit: DownSamplingUnit = field(default_factory=DownSamplingUnit)
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)
    #: Registry name of the down-sampling method ("ois", "fps", "random", ...).
    sampler_name: str = "ois"
    #: Warm sampler cache keyed by (sampler_name, octree depth):
    #: (sampler, accepts_octree).  Keyed on the name so reassigning
    #: ``sampler_name`` on a warm engine takes effect.
    _samplers: Dict[Tuple[str, int], Tuple[Sampler, bool]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def sampler_for(self, depth: int) -> Sampler:
        """Return (building and caching on first use) the sampler for ``depth``."""
        return self._sampler_entry(depth)[0]

    def _sampler_entry(self, depth: int) -> Tuple[Sampler, bool]:
        key = (self.sampler_name, depth)
        entry = self._samplers.get(key)
        if entry is None:
            sampler = self._build_sampler(depth)
            entry = (sampler, _accepts_keyword(sampler.sample, "octree"))
            self._samplers[key] = entry
        return entry

    def _build_sampler(self, depth: int) -> Sampler:
        pre = self.config.preprocessing
        options: Dict[str, Any] = {"seed": pre.seed}
        if self.sampler_name in ("ois", "ois-approx"):
            options["octree_depth"] = depth
            options["num_sampling_modules"] = pre.num_sampling_modules
            if pre.approximate:
                options["approximate"] = True
        from repro import registry

        return registry.create("sampler", self.sampler_name, **options)

    def process(self, cloud: PointCloud) -> PreprocessingResult:
        """Pre-process one raw frame: :meth:`process_batch` with ``B = 1``.

        This is also how a caller gets the octree or Octree-Table of a frame
        a session served: ``session.preprocessing_engine.process(cloud)`` is
        deterministic and bit-identical to what the response was computed
        from.
        """
        return self.process_batch(FrameBatch.from_clouds([cloud]))[0]

    def process_batch(self, batch: "FrameBatch") -> List[PreprocessingResult]:
        """Pre-process a same-shaped frame batch.

        The octree depth and sampler are resolved once for the whole batch
        (every member down-samples to the same shape), and the per-frame
        octrees come out of one :meth:`Octree.build_batch` kernel sequence
        -- one stacked m-code encode and one stacked sort for all frames.
        Sampling and the latency/on-chip accounting stay per frame, in
        frame order, and every returned :class:`PreprocessingResult` is
        bit-identical to processing that frame alone: the per-frame tail
        is pure (fresh sampler RNG per frame).
        """
        pre = self.config.preprocessing
        depth = pre.octree_depth or suggest_depth(batch.num_points)
        octrees = Octree.build_batch(batch.clouds, depth=depth)
        return [
            self._finish_frame(cloud, octree, depth)
            for cloud, octree in zip(batch.clouds, octrees)
        ]

    def _finish_frame(
        self, cloud: PointCloud, octree: Octree, depth: int
    ) -> PreprocessingResult:
        """Per-frame tail: down-sampling, cost accounting."""
        num_samples = min(self.config.preprocessing.num_samples, cloud.num_points)

        # The Octree-Table has one row per octree node, so its footprint
        # follows from the octree's counts without building it.
        table_entries = octree.num_nodes
        entry_bits = OctreeTable.entry_bits_for(
            depth, table_entries, cloud.num_points
        )
        table_bits = table_entries * entry_bits

        sampler, accepts_octree = self._sampler_entry(depth)
        if accepts_octree:
            sampling = sampler.sample(cloud, num_samples, octree=octree)
        else:
            sampling = sampler.sample(cloud, num_samples)

        breakdown = LatencyBreakdown()
        breakdown.add("octree_build", self.octree_build_unit.seconds_for(octree.stats))
        breakdown.add(
            "table_transfer",
            self.interconnect.octree_table_transfer_seconds(table_bits),
        )
        breakdown.add(
            "downsampling",
            self.downsampling_unit.seconds_per_frame(depth, num_samples),
        )

        onchip = ois_onchip_megabits(
            num_table_entries=table_entries,
            entry_bits=entry_bits,
            num_samples=num_samples,
        )
        budget = OnChipMemoryModel(
            capacity_megabits=self.config.system.onchip_memory_megabits
        )
        budget.allocate("octree_table_and_spt", onchip)

        return PreprocessingResult(
            sampled=sampling.sampled,
            sampling=sampling,
            octree=octree,
            octree_table_entries=table_entries,
            octree_table_bits=table_bits,
            breakdown=breakdown,
            onchip_megabits=onchip,
        )


@dataclass
class InferenceExecution:
    """Output of the Inference Engine for one down-sampled input."""

    forward: ForwardResult
    report: InferenceReport
    breakdown: LatencyBreakdown
    gather_run_stats: Dict[str, object] = field(default_factory=dict)
    #: Workload description extracted once from ``forward`` (Figure 2's MVM
    #: layer shapes + data structuring counters).
    workload: Optional[NetworkWorkload] = None
    #: Whether the engine served this execution from warm state (a cached
    #: model) instead of constructing the network.
    warm: bool = False

    def total_seconds(self) -> float:
        return self.report.total_seconds()

    def predicted_labels(self) -> np.ndarray:
        return self.forward.predicted_class()


@dataclass
class InferenceWarmState:
    """Constructed network state reused across same-shaped frames.

    Building the PointNet++ model (weight initialisation, layer wiring) only
    depends on ``(task, input_size, feature_channels, backend)`` plus the
    engine config, not on the frame's point coordinates, so a warm engine
    keeps one entry per shape and reuses the same model and gatherer objects
    for every frame of that shape.  The compute backend is part of the key:
    a model is wired to its backend at construction, so two backends must
    never share a warm entry.
    """

    key: Tuple[str, int, int, str]
    gatherer: Gatherer
    model: Any
    #: Number of forward passes served by this entry.
    uses: int = 0


@dataclass
class InferenceEngine:
    """Data Structuring Unit (VEG) + Feature Computation Unit (DLA)."""

    config: HgPCNConfig = field(default_factory=HgPCNConfig)
    accelerator: InferenceAccelerator = field(
        default_factory=HgPCNInferenceAccelerator
    )
    task: str = "classification"
    #: Compute backend name executing the dense layers (``None`` = process
    #: default: ``REPRO_BACKEND`` env when set, else fused).
    backend: Optional[str] = None
    #: Warm model cache, keyed by (task, input_size, feature_channels,
    #: backend name).
    _warm: Dict[Tuple[str, int, int, str], InferenceWarmState] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: How many times a model was constructed (cache misses).
    model_builds: int = field(default=0, init=False, repr=False, compare=False)
    #: Whether the accelerator accepts measured VEG statistics, probed once
    #: per accelerator object: (id(accelerator), accepts).
    _measured_probe: Optional[Tuple[int, bool]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def warm_state(self, input_size: int, feature_channels: int) -> InferenceWarmState:
        """Return (building on first use) the warm state for one input shape."""
        backend = resolve_backend(self.backend)
        key = (self.task, input_size, feature_channels, backend.name)
        state = self._warm.get(key)
        if state is None:
            inf = self.config.inference
            # The gathering grid depth is the octree leaf level the DSU walks
            # (the raw-frame octree built by the Pre-processing Engine indexes
            # the same space, so reusing it is an amortisation the paper
            # points out -- the grid here is tiny).
            depth = suggest_depth(input_size)
            gatherer = VoxelExpandedGatherer(
                depth=depth,
                semi_approximate=inf.semi_approximate,
                seed=inf.seed,
            )
            model = build_model_for_task(
                self.task,
                input_size=input_size,
                gatherer=gatherer,
                input_feature_channels=feature_channels,
                neighbors=min(inf.neighbors_per_centroid, max(1, input_size // 2)),
                seed=inf.seed,
                backend=backend,
            )
            state = InferenceWarmState(key=key, gatherer=gatherer, model=model)
            self._warm[key] = state
            self.model_builds += 1
        return state

    def warm_keys(self) -> Tuple[Tuple[str, int, int, str], ...]:
        return tuple(self._warm)

    def process(self, sampled: PointCloud) -> InferenceExecution:
        """Run the PCN on one input cloud: :meth:`process_batch` with ``B = 1``."""
        return self.process_batch(FrameBatch.from_clouds([sampled]))[0]

    def process_batch(self, batch: FrameBatch) -> List[InferenceExecution]:
        """Run the PCN on a batch of same-shaped down-sampled inputs.

        One warm model serves the whole batch (built at most once), and the
        forward pass runs batch-native via the model's ``forward_batch`` --
        every shared-MLP / FP / head layer sees one stacked operand for all
        frames -- while traces, workload extraction, and accelerator pricing
        stay per frame.  Each returned :class:`InferenceExecution` is
        bit-identical to processing that frame alone, including the
        ``warm`` flag sequence (the first frame of a cold shape reports
        ``warm=False``, every later one ``warm=True``).
        """
        state = self.warm_state(batch.num_points, batch.num_feature_channels)
        warms = []
        for _ in range(len(batch)):
            warms.append(state.uses > 0)
            state.uses += 1
        forwards = state.model.forward_batch(batch)
        return [
            self._finish_execution(sampled, forward, warm)
            for sampled, forward, warm in zip(batch.clouds, forwards, warms)
        ]

    def _finish_execution(
        self, sampled: PointCloud, forward: ForwardResult, warm: bool
    ) -> InferenceExecution:
        """Per-frame tail: workload extraction + accelerator pricing."""
        inf = self.config.inference
        workload = extract_workload(forward)

        # Collect the measured VEG statistics per SA layer for the DSU model.
        run_stats: Dict[str, object] = {}
        for trace in forward.sa_traces:
            if trace.gather is not None and "run_stats" in trace.gather.info:
                run_stats[trace.name] = trace.gather.info["run_stats"]

        spec = InferenceWorkloadSpec(
            dataset="custom",
            task=self.task,
            input_size=sampled.num_points,
            neighbors=inf.neighbors_per_centroid,
            input_feature_channels=sampled.num_feature_channels,
        )
        report = self._inference_report(spec, run_stats)
        return InferenceExecution(
            forward=forward,
            report=report,
            breakdown=report.breakdown,
            gather_run_stats=run_stats,
            workload=workload,
            warm=warm,
        )

    def _inference_report(
        self, spec: InferenceWorkloadSpec, run_stats: Dict[str, object]
    ) -> InferenceReport:
        """Price ``spec`` on the configured accelerator.

        Only accelerators that model the DSU (i.e. HgPCN) accept the measured
        per-layer VEG statistics; the baselines price their own analytic data
        structuring workload.
        """
        if self._ensure_measured_probe():
            return self.accelerator.inference_report(
                spec, measured_run_stats=run_stats or None
            )
        return self.accelerator.inference_report(spec)

    def _ensure_measured_probe(self) -> bool:
        """Whether the accelerator accepts measured VEG statistics (cached)."""
        probe = self._measured_probe
        if probe is None or probe[0] != id(self.accelerator):
            probe = (
                id(self.accelerator),
                _accepts_keyword(
                    self.accelerator.inference_report, "measured_run_stats"
                ),
            )
            self._measured_probe = probe
        return probe[1]
