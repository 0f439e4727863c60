"""Typed serve configuration shared by the CLI and the benchmark harness.

:class:`ServeConfig` is the one description of a serving soak: what traffic
to generate, on what execution substrate and under which admission mode,
with which chaos plan.  The ``serve`` CLI parses straight into it: a config
field declared with :func:`_flag` *is* the flag -- name, default, validator
and help written once -- so :meth:`ServeConfig.add_cli_args` and
:meth:`ServeConfig.from_args` are loops over the dataclass fields, and
``benchmarks/run_all.py`` constructs the same dataclasses directly.

The sub-configs mirror the argparse groups:

* :class:`TrafficConfig` -- which registered ``"traffic"`` model generates
  the request stream (``None`` keeps the legacy dataset-frames +
  seeded-Poisson path), its rate and frame size;
* :class:`ExecutionConfig` -- workers, execution mode, micro-batch
  triggers, the waiting room's bound and admission mode, pipeline
  components;
* :class:`ChaosConfig` -- the seeded fault plan.

Everything a builder returns is a pure function of the config (and its
seed), so two processes constructing the same ``ServeConfig`` drive
byte-identical soaks.  Flags that contradict each other, or that would
have no effect, are a ``ValueError`` when the config is constructed, not
a silently different soak.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import registry
from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.serving.faults import FaultPlan
from repro.serving.server import ADMISSION_MODES, EXECUTION_MODES
from repro.serving.traffic import TrafficItem, TrafficModel

#: Registry dataset name -> Table I task (the CLI's mapping).
DATASET_TASKS = {
    "modelnet40": "classification",
    "shapenet": "part_segmentation",
    "s3dis": "semantic_segmentation",
    "kitti": "semantic_segmentation",
}


def _number(cast: type, accept: Any, kind: str, what: str) -> Any:
    """argparse type: ``cast(text)`` passing ``accept`` (a clean error
    instead of a deep crash)."""

    def parse(text: str) -> Any:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text}")
        return value

    return parse


positive_int = _number(int, lambda v: v >= 1, "an integer", "a positive integer")
#: 0 is the documented sentinel of the flags that take this.
nonnegative_int = _number(
    int, lambda v: v >= 0, "an integer", "a non-negative integer"
)
positive_float = _number(
    float, lambda v: v > 0 and np.isfinite(v), "a number", "a positive number"
)
#: 0 is the documented sentinel of the flags that take this; NaN and inf
#: fail the range test, so they exit 2 instead of hanging or disabling.
nonnegative_float = _number(
    float, lambda v: 0 <= v < np.inf, "a number", "a finite non-negative number"
)
fraction = _number(float, lambda v: 0 < v <= 1, "a number", "a number in (0, 1]")


def _flag(default: Any, flag: Optional[str] = None, **argparse_kwargs: Any) -> Any:
    """A config field that is also a ``serve`` flag.

    ``default`` (a factory for mutable values) is the one place the default
    is written; ``flag`` names the option when it is not ``--field-name``;
    the rest are its ``add_argument`` keywords (``choices`` may be a
    callable, resolved when the parser is built).
    """
    metadata = {"flag": flag, "argparse": argparse_kwargs}
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


def _flag_name(spec: Any) -> str:
    return spec.metadata["flag"] or "--" + spec.name.replace("_", "-")


def _flag_dest(spec: Any) -> str:
    """The ``args`` attribute argparse stores the flag's value under."""
    explicit = spec.metadata["argparse"].get("dest")
    return explicit or _flag_name(spec)[2:].replace("-", "_")


def _add_flags(group: Any, owner: type) -> None:
    """Declare every :func:`_flag` field of ``owner`` on ``group``."""
    defaults = owner()
    for spec in fields(owner):
        if "flag" not in spec.metadata:
            continue
        kwargs = dict(spec.metadata["argparse"])
        if callable(kwargs.get("choices")):
            kwargs["choices"] = kwargs["choices"]()
        default = getattr(defaults, spec.name)
        if kwargs.get("action") == "append":
            default = list(default)  # the field's own empty collection
        group.add_argument(_flag_name(spec), default=default, **kwargs)


def _from_flags(owner: type, args: argparse.Namespace, **computed: Any) -> Any:
    """Build ``owner`` from parsed flags: a field is ``computed`` or a plain
    copy of its flag's value (fields without a flag keep their default)."""
    values = dict(computed)
    for spec in fields(owner):
        if "flag" in spec.metadata and spec.name not in values:
            values[spec.name] = getattr(args, _flag_dest(spec))
    return owner(**values)


@dataclass
class TrafficConfig:
    """Which traffic model generates the request stream, and how fast."""

    #: Registered ``"traffic"`` model name; ``None`` keeps the legacy
    #: dataset-frames + seeded-Poisson request path.
    model: Optional[str] = _flag(
        None, "--traffic", choices=lambda: registry.available("traffic"),
        help="registered traffic model generating the request stream "
             "(default: dataset frames on a seeded Poisson schedule)",
    )
    #: Mean arrival rate in Hz (0 = submit everything at once).
    rate_hz: float = _flag(
        100.0, type=nonnegative_float,
        help="mean arrival rate of the open-loop traffic "
             "(0 = submit everything at once)",
    )
    #: Raw cloud size for model-generated frames.
    raw_points: int = _flag(
        400, "--traffic-raw-points", type=positive_int,
        help="raw cloud size of model-generated frames (default 400)",
    )

    def build(self, frames: int, seed: int) -> Optional[TrafficModel]:
        """Instantiate the registered model (``None`` when unset)."""
        if self.model is None:
            return None
        return registry.create(
            "traffic",
            self.model,
            frames=frames,
            rate_hz=self.rate_hz,
            seed=seed,
            raw_points=self.raw_points,
        )


@dataclass
class ExecutionConfig:
    """Workers, micro-batch triggers, and pipeline components."""

    workers: int = _flag(
        2, type=positive_int,
        help="warm-session workers in the server (default 2)",
    )
    execution: str = _flag(
        "thread", choices=EXECUTION_MODES,
        help="run workers as threads or as fork-spawned processes with "
             "shared-memory batch transport (default thread)",
    )
    sampler: str = _flag("ois", choices=lambda: registry.available("sampler"))
    accelerator: str = _flag(
        "hgpcn", choices=lambda: registry.available("accelerator")
    )
    backend: Optional[str] = _flag(
        None, choices=lambda: registry.available("backend"),
        help="compute backend for every serving session -- workers and "
             "the sequential bit-identity reference alike (default: "
             "session default -- REPRO_BACKEND env or fused)",
    )
    max_batch: int = _flag(
        8, type=positive_int, help="micro-batch size trigger (default 8)"
    )
    max_wait_ms: float = _flag(
        5.0, type=nonnegative_float,
        help="longest a partial batch waits behind running work, in ms "
             "(default 5)",
    )
    #: Waiting-room bound (0 = sized to the request count).
    queue_capacity: int = _flag(
        0, type=nonnegative_int,
        help="bound on requests admitted but not yet started (0 = sized "
             "to the request count, i.e. no backpressure during the soak)",
    )
    admission: str = _flag(
        "reject", choices=ADMISSION_MODES,
        help="what a full waiting room does to an arrival: 'reject' raises "
             "QueueFull, 'shed' resolves its future with LoadShed "
             "(default reject)",
    )


@dataclass
class ChaosConfig:
    """Seeded fault plan for chaos soaks (requires process execution)."""

    enabled: bool = _flag(
        False, "--chaos", action="store_true",
        help="run the soak under a seeded fault plan (kill one worker "
             "mid-run, slow another) and gate on full recovery; "
             "requires --execution process",
    )
    kill_after: int = _flag(
        2, "--chaos-kill-after", type=nonnegative_int,
        help="kill worker 0 after it has started this many batches "
             "(default 2)",
    )
    slow_ms: float = _flag(
        25.0, "--chaos-slow-ms", type=positive_float,
        help="injected latency per batch on the slow worker (default 25)",
    )

    def build(self, seed: int, workers: int) -> Optional[FaultPlan]:
        if not self.enabled:
            return None
        faults = FaultPlan(seed=seed).kill_worker(
            0, after_batches=self.kill_after
        )
        if workers > 1:
            faults.slow_worker(1, delay_seconds=self.slow_ms / 1e3)
        return faults


@dataclass
class ServeConfig:
    """Everything one serving soak needs, CLI- and benchmark-constructible."""

    dataset: str = _flag("kitti", choices=sorted(DATASET_TASKS))
    scale: float = _flag(
        0.001, type=fraction,
        help="fraction of the paper-scale raw frame to generate",
    )
    samples: int = _flag(
        64, type=positive_int, help="down-sampled input size (default 64)"
    )
    neighbors: int = _flag(8, type=positive_int)
    seed: int = _flag(0, type=nonnegative_int)
    frames: int = _flag(
        200, type=positive_int, help="number of synthetic requests to serve"
    )
    metrics_out: Path = _flag(
        Path("serving_metrics.json"), type=Path,
        help="where to write the JSON metrics report",
    )
    p99_budget_ms: float = _flag(
        10_000.0, type=nonnegative_float,
        help="fail when p99 end-to-end latency exceeds this (0 disables)",
    )
    request_timeout: float = _flag(
        300.0, type=positive_float,
        help="per-request future.result timeout in seconds (default 300)",
    )
    verify: bool = _flag(
        True, "--no-verify", dest="verify", action="store_false",
        help="skip the bit-identity check against a sequential run_batch",
    )
    #: Gate: fail unless at least this many requests were load-shed (a
    #: shed soak where nothing shed proves nothing; 0 disables).
    min_load_sheds: int = _flag(
        0, type=nonnegative_int,
        help="fail unless at least this many requests were load-shed "
             "(validates a shed-mode soak actually shed; 0 disables)",
    )
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    chaos: ChaosConfig = field(default_factory=ChaosConfig)

    def __post_init__(self) -> None:
        # Only shed admission load-sheds; a reject-mode soak would fail the
        # gate whatever the server did.
        if self.min_load_sheds and self.execution.admission != "shed":
            raise ValueError("--min-load-sheds needs --admission shed")

    # -- argparse integration --------------------------------------------
    @staticmethod
    def add_cli_args(parser: argparse.ArgumentParser) -> None:
        """Declare the ``serve`` flags: this class's own on ``parser``, each
        sub-config's in the argparse group named after its field."""
        _add_flags(parser, ServeConfig)
        for name, owner, description in _FLAG_GROUPS:
            _add_flags(parser.add_argument_group(name, description), owner)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServeConfig":
        """The config the parsed ``serve`` flags describe; ``ValueError``
        names the flags that contradict each other."""
        return _from_flags(
            cls,
            args,
            traffic=_from_flags(TrafficConfig, args),
            execution=_from_flags(ExecutionConfig, args),
            chaos=_from_flags(ChaosConfig, args),
        )

    # -- builders ---------------------------------------------------------
    def hgpcn_config(self) -> HgPCNConfig:
        return HgPCNConfig(
            preprocessing=PreprocessingConfig(
                num_samples=self.samples, seed=self.seed
            ),
            inference=InferenceEngineConfig(
                num_centroids=max(8, self.samples // 4),
                neighbors_per_centroid=self.neighbors,
                seed=self.seed,
            ),
        )

    def session_options(self) -> Dict[str, Any]:
        """Session kwargs shared by every worker *and* the sequential
        bit-identity reference (cache-less so outputs never depend on
        scheduling)."""
        return dict(
            config=self.hgpcn_config(),
            task=DATASET_TASKS[self.dataset],
            sampler=self.execution.sampler,
            accelerator=self.execution.accelerator,
            response_cache_size=0,
            backend=self.execution.backend,
        )

    def build_faults(self) -> Optional[FaultPlan]:
        return self.chaos.build(self.seed, self.execution.workers)

    def build_traffic_items(self) -> List[TrafficItem]:
        """The request stream: traffic-model items, or dataset frames on a
        seeded Poisson schedule (the legacy path) when no model is set."""
        model = self.traffic.build(frames=self.frames, seed=self.seed)
        if model is not None:
            return model.items()
        from repro.session import FrameRequest

        source = registry.create(
            "dataset",
            self.dataset,
            num_frames=self.frames,
            seed=self.seed,
            scale=self.scale,
        )
        requests = [
            FrameRequest.from_frame(source.generate_frame(i))
            for i in range(self.frames)
        ]
        rng = np.random.default_rng(self.seed)
        if self.traffic.rate_hz > 0:
            arrivals = np.cumsum(
                rng.exponential(1.0 / self.traffic.rate_hz, size=self.frames)
            )
        else:
            arrivals = np.zeros(self.frames)
        return [
            TrafficItem(request=request, arrival=float(arrival))
            for request, arrival in zip(requests, arrivals)
        ]

    def endpoint_options(
        self, num_requests: int, faults: Optional[FaultPlan]
    ) -> Dict[str, Any]:
        """Constructor kwargs for ``FrameServer``."""
        from repro.session import Session

        session_options = self.session_options()
        return dict(
            session_factory=lambda: Session(**session_options),
            num_workers=self.execution.workers,
            execution=self.execution.execution,
            max_batch_size=self.execution.max_batch,
            max_wait_seconds=self.execution.max_wait_ms / 1e3,
            queue_capacity=self.execution.queue_capacity or num_requests,
            faults=faults,
            admission=self.execution.admission,
        )


#: ``ServeConfig`` sub-config field / argparse group title, its dataclass,
#: and the group's description, in ``--help`` order.
_FLAG_GROUPS = (
    ("traffic", TrafficConfig, "what request stream to generate"),
    ("execution", ExecutionConfig,
     "workers, micro-batch triggers and admission"),
    ("chaos", ChaosConfig, "seeded fault injection"),
)
