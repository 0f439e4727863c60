"""Typed serve configuration shared by the CLI and the benchmark harness.

:class:`ServeConfig` is the one description of a serving soak: what traffic
to generate, under which serving policy, on what execution substrate, with
which chaos plan.  The ``serve`` CLI parses straight into it
(:meth:`ServeConfig.add_cli_args` declares the argparse groups,
:meth:`ServeConfig.from_args` reads them back) and
``benchmarks/run_all.py`` constructs it directly -- one source of truth
instead of two copies of the same ~20-knob plumbing.

The sub-configs mirror the argparse groups:

* :class:`TrafficConfig` -- which registered ``"traffic"`` model generates
  the request stream (``None`` keeps the legacy dataset-frames +
  seeded-Poisson path), its rate, and model-specific parameters;
* :class:`PolicyConfig` -- priority-class specs
  (``name:priority[:slo_ms][:preempt]``), admission mode, rate limits,
  adaptive max-wait -- building an optional
  :class:`~repro.serving.policy.ServingPolicy`;
* :class:`ExecutionConfig` -- workers, execution mode, shards, micro-batch
  triggers, pipeline components;
* :class:`ChaosConfig` -- the seeded fault plan.

Everything a builder returns is a pure function of the config (and its
seed), so two processes constructing the same ``ServeConfig`` drive
byte-identical soaks.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import registry
from repro.core.config import (
    HgPCNConfig,
    InferenceEngineConfig,
    PreprocessingConfig,
)
from repro.serving.faults import FaultPlan
from repro.serving.policy import (
    ADMISSION_MODES,
    PriorityClass,
    ServingPolicy,
)
from repro.serving.traffic import TrafficItem, TrafficModel

#: Registry dataset name -> Table I task (the CLI's mapping).
DATASET_TASKS = {
    "modelnet40": "classification",
    "shapenet": "part_segmentation",
    "s3dis": "semantic_segmentation",
    "kitti": "semantic_segmentation",
}


def positive_int(text: str) -> int:
    """argparse type: integer >= 1 (clean error instead of a deep crash)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def nonnegative_int(text: str) -> int:
    """argparse type: integer >= 0 (0 is the documented sentinel)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def positive_float(text: str) -> float:
    """argparse type: finite float > 0 (clean error instead of a deep crash)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0 or not np.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text}"
        )
    return value


def parse_class_spec(spec: str) -> PriorityClass:
    """Parse one ``--classes`` item: ``name:priority[:slo_ms][:preempt]``.

    Examples: ``high:10:50:preempt`` (priority 10, 50 ms SLO, preempting),
    ``low:0`` (priority 0, no SLO).  The optional third field is the SLO
    budget in ms; a trailing ``preempt`` token makes arrivals of the class
    dispatch their shape group immediately.
    """
    parts = [p for p in spec.split(":") if p != ""]
    if not parts:
        raise argparse.ArgumentTypeError(f"empty class spec {spec!r}")
    name = parts[0]
    priority = 0
    slo_ms: Optional[float] = None
    preempt = False
    rest = parts[1:]
    if rest and rest[0] != "preempt":
        try:
            priority = int(rest[0])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"class spec {spec!r}: priority must be an integer, "
                f"got {rest[0]!r}"
            )
        rest = rest[1:]
    if rest and rest[0] != "preempt":
        try:
            slo_ms = float(rest[0])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"class spec {spec!r}: slo_ms must be a number, got {rest[0]!r}"
            )
        rest = rest[1:]
    if rest:
        if rest != ["preempt"]:
            raise argparse.ArgumentTypeError(
                f"class spec {spec!r}: unexpected trailing {rest!r} "
                "(expected 'preempt')"
            )
        preempt = True
    try:
        return PriorityClass(
            name=name, priority=priority, slo_ms=slo_ms, preempt=preempt
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"class spec {spec!r}: {exc}")


def _parse_traffic_param(text: str) -> Tuple[str, Any]:
    """Parse one ``--traffic-param key=value`` (value coerced to a number
    when it looks like one)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    key, raw = text.split("=", 1)
    value: Any = raw
    for cast in (int, float):
        try:
            value = cast(raw)
            break
        except ValueError:
            continue
    return key.replace("-", "_"), value


@dataclass
class TrafficConfig:
    """Which traffic model generates the request stream, and how fast."""

    #: Registered ``"traffic"`` model name; ``None`` keeps the legacy
    #: dataset-frames + seeded-Poisson request path.
    model: Optional[str] = None
    #: Mean arrival rate in Hz (0 = submit everything at once).
    rate_hz: float = 100.0
    #: Raw cloud size for model-generated frames.
    raw_points: int = 400
    #: Per-item class draw weights, parallel to the policy's class list
    #: (``None`` -> uniform).  Only used when a policy defines classes.
    class_weights: Optional[Tuple[float, ...]] = None
    #: Model-specific constructor kwargs (e.g. ``burst_size``, ``sigma``).
    params: Dict[str, Any] = field(default_factory=dict)

    def build(
        self,
        frames: int,
        seed: int,
        class_names: Sequence[str] = (),
    ) -> Optional[TrafficModel]:
        """Instantiate the registered model (``None`` when unset)."""
        if self.model is None:
            return None
        kwargs: Dict[str, Any] = dict(
            frames=frames,
            rate_hz=self.rate_hz,
            seed=seed,
            raw_points=self.raw_points,
            **self.params,
        )
        if class_names:
            kwargs["class_names"] = tuple(class_names)
            if self.class_weights is not None:
                kwargs["class_weights"] = self.class_weights
        return registry.create("traffic", self.model, **kwargs)


@dataclass
class PolicyConfig:
    """Serving-policy knobs; :meth:`build` returns ``None`` when untouched."""

    classes: Tuple[PriorityClass, ...] = ()
    default_class: Optional[str] = None
    admission: str = "reject"
    max_backlog: Optional[int] = None
    rate_limit_hz: Optional[float] = None
    rate_limit_burst: int = 8
    adaptive_max_wait: bool = False
    min_wait_ms: float = 0.5
    adaptive_alpha: float = 0.2

    @property
    def configured(self) -> bool:
        return bool(
            self.classes
            or self.admission != "reject"
            or self.rate_limit_hz is not None
            or self.adaptive_max_wait
        )

    def build(self) -> Optional[ServingPolicy]:
        if not self.configured:
            return None
        classes = self.classes or (PriorityClass("default"),)
        names = [cls.name for cls in classes]
        default = self.default_class
        if default is None:
            # Lowest-priority class is the natural default: unlabelled
            # traffic should not outrank labelled high-priority work.
            default = min(classes, key=lambda c: (c.priority, c.name)).name
        elif default not in names:
            raise ValueError(
                f"default class {default!r} is not one of {names}"
            )
        return ServingPolicy(
            classes=tuple(classes),
            default_class=default,
            admission=self.admission,
            max_backlog=self.max_backlog,
            rate_limit_hz=self.rate_limit_hz,
            rate_limit_burst=self.rate_limit_burst,
            adaptive_max_wait=self.adaptive_max_wait,
            min_wait_seconds=self.min_wait_ms / 1e3,
            adaptive_alpha=self.adaptive_alpha,
        )


@dataclass
class ExecutionConfig:
    """Workers, shards, micro-batch triggers, and pipeline components."""

    workers: int = 2
    execution: str = "thread"
    shards: int = 1
    max_batch: int = 8
    max_wait_ms: float = 5.0
    #: Admission queue bound (0 = sized to the request count).
    queue_capacity: int = 0
    #: Stacked-rows cap per dispatch (0 = session default).
    batch_rows_budget: int = 0
    sampler: str = "ois"
    accelerator: str = "hgpcn"
    backend: Optional[str] = None
    preprocess_workers: Optional[int] = None


@dataclass
class ChaosConfig:
    """Seeded fault plan for chaos soaks (requires process execution)."""

    enabled: bool = False
    kill_after: int = 2
    slow_ms: float = 25.0

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

    dataset: str = "kitti"
    scale: float = 0.001
    samples: int = 64
    neighbors: int = 8
    seed: int = 0
    frames: int = 200
    verify: bool = True
    metrics_out: Path = Path("serving_metrics.json")
    p99_budget_ms: float = 10_000.0
    request_timeout: float = 300.0
    #: Gate: fail unless at least this many requests were load-shed (a
    #: shed soak where nothing shed proves nothing; 0 disables).
    min_load_sheds: int = 0
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    chaos: ChaosConfig = field(default_factory=ChaosConfig)

    # -- argparse integration --------------------------------------------
    @staticmethod
    def add_cli_args(parser: argparse.ArgumentParser) -> None:
        """Declare the ``serve`` flags as traffic/policy/execution/chaos
        argparse groups (flag names unchanged from the pre-group CLI)."""
        parser.add_argument(
            "--dataset", choices=sorted(DATASET_TASKS), default="kitti"
        )
        parser.add_argument(
            "--scale", type=float, default=0.001,
            help="fraction of the paper-scale raw frame to generate",
        )
        parser.add_argument(
            "--samples", type=positive_int, default=64,
            help="down-sampled input size (default 64)",
        )
        parser.add_argument("--neighbors", type=positive_int, default=8)
        parser.add_argument("--seed", type=nonnegative_int, default=0)
        parser.add_argument(
            "--frames", type=positive_int, default=200,
            help="number of synthetic requests to serve",
        )
        parser.add_argument(
            "--metrics-out", type=Path, default=Path("serving_metrics.json"),
            help="where to write the JSON metrics report",
        )
        parser.add_argument(
            "--p99-budget-ms", type=float, default=10_000.0,
            help="fail when p99 end-to-end latency exceeds this (0 disables)",
        )
        parser.add_argument(
            "--request-timeout", type=positive_float, default=300.0,
            help="per-request future.result timeout in seconds (default 300)",
        )
        parser.add_argument(
            "--no-verify", dest="verify", action="store_false",
            help="skip the bit-identity check against a sequential run_batch",
        )
        parser.add_argument(
            "--min-load-sheds", type=nonnegative_int, default=0,
            help="fail unless at least this many requests were load-shed "
                 "(validates a shed-mode soak actually shed; 0 disables)",
        )

        traffic = parser.add_argument_group(
            "traffic", "what request stream to generate"
        )
        traffic.add_argument(
            "--traffic",
            choices=registry.available("traffic"),
            default=None,
            help="registered traffic model generating the request stream "
                 "(default: dataset frames on a seeded Poisson schedule)",
        )
        traffic.add_argument(
            "--rate-hz", type=float, default=100.0,
            help="mean arrival rate of the open-loop traffic "
                 "(0 = submit everything at once)",
        )
        traffic.add_argument(
            "--traffic-raw-points", type=positive_int, default=400,
            help="raw cloud size of model-generated frames (default 400)",
        )
        traffic.add_argument(
            "--traffic-param", type=_parse_traffic_param, action="append",
            default=[], metavar="KEY=VALUE",
            help="model-specific parameter, repeatable "
                 "(e.g. --traffic-param burst_size=8)",
        )
        traffic.add_argument(
            "--traffic-class-weights", default=None,
            help="per-class draw weights: either comma-separated floats "
                 "parallel to --classes, or name=weight pairs "
                 "(e.g. high=0.3,low=0.7; default uniform)",
        )

        policy = parser.add_argument_group(
            "policy", "serving policy: priority classes, shedding, limits"
        )
        policy.add_argument(
            "--classes", type=parse_class_spec, action="append", default=[],
            metavar="NAME:PRIO[:SLO_MS][:preempt]",
            help="priority class spec, repeatable "
                 "(e.g. --classes high:10:50:preempt --classes low:0)",
        )
        policy.add_argument(
            "--default-class", default=None,
            help="class for unlabelled requests "
                 "(default: the lowest-priority class)",
        )
        policy.add_argument(
            "--admission", choices=ADMISSION_MODES, default="reject",
            help="over-capacity behaviour: 'reject' raises QueueFull, "
                 "'shed' resolves lowest-priority work with LoadShed",
        )
        policy.add_argument(
            "--max-backlog", type=positive_int, default=None,
            help="shed threshold on admitted-but-unfinished requests "
                 "(default: the queue capacity)",
        )
        policy.add_argument(
            "--rate-limit-hz", type=positive_float, default=None,
            help="per-shape-key token-bucket refill rate (default: off)",
        )
        policy.add_argument(
            "--rate-limit-burst", type=positive_int, default=8,
            help="token-bucket capacity (default 8)",
        )
        policy.add_argument(
            "--adaptive-max-wait", action="store_true",
            help="tune the micro-batch deadline trigger to the observed "
                 "arrival rate (never above --max-wait-ms)",
        )
        policy.add_argument(
            "--min-wait-ms", type=positive_float, default=0.5,
            help="floor of the adaptive wait (default 0.5)",
        )

        execution = parser.add_argument_group(
            "execution", "workers, shards, and micro-batch triggers"
        )
        execution.add_argument(
            "--workers", type=positive_int, default=2,
            help="warm-session workers per server/shard (default 2)",
        )
        execution.add_argument(
            "--execution", choices=("thread", "process"), default="thread",
            help="run workers as threads or as fork-spawned processes with "
                 "shared-memory batch transport (default thread)",
        )
        execution.add_argument(
            "--shards", type=positive_int, default=1,
            help="consistent-hash shard count; >1 routes requests across N "
                 "in-process FrameServer shards (default 1)",
        )
        execution.add_argument(
            "--sampler", choices=registry.available("sampler"), default="ois"
        )
        execution.add_argument(
            "--accelerator", choices=registry.available("accelerator"),
            default="hgpcn",
        )
        execution.add_argument(
            "--backend",
            choices=registry.available("backend"),
            default=None,
            help="compute backend for every serving session -- workers and "
                 "the sequential bit-identity reference alike (default: "
                 "session default -- REPRO_BACKEND env or fused)",
        )
        execution.add_argument(
            "--max-batch", type=positive_int, default=8,
            help="micro-batch size trigger (default 8)",
        )
        execution.add_argument(
            "--max-wait-ms", type=float, default=5.0,
            help="micro-batch deadline trigger in ms (default 5)",
        )
        execution.add_argument(
            "--queue-capacity", type=nonnegative_int, default=0,
            help="admission queue bound (0 = sized to the request count, "
                 "i.e. no backpressure during the soak)",
        )
        execution.add_argument(
            "--batch-rows-budget", type=nonnegative_int, default=0,
            help="stacked-rows cap per dispatch (0 = session default)",
        )
        execution.add_argument(
            "--preprocess-workers", type=positive_int, default=None,
            help="intra-batch worker threads inside each serving worker's "
                 "engine stage tails (default: REPRO_PREPROCESS_WORKERS "
                 "env, else serial)",
        )

        chaos = parser.add_argument_group("chaos", "seeded fault injection")
        chaos.add_argument(
            "--chaos", action="store_true",
            help="run the soak under a seeded fault plan (kill one worker "
                 "mid-run, slow another) and gate on full recovery; "
                 "requires --execution process",
        )
        chaos.add_argument(
            "--chaos-kill-after", type=nonnegative_int, default=2,
            help="kill worker 0 after it has started this many batches "
                 "(default 2)",
        )
        chaos.add_argument(
            "--chaos-slow-ms", type=positive_float, default=25.0,
            help="injected latency per batch on the slow worker (default 25)",
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServeConfig":
        weights: Optional[Tuple[float, ...]] = None
        if args.traffic_class_weights:
            entries = args.traffic_class_weights.split(",")
            if any("=" in entry for entry in entries):
                # name=weight form: reorder to match the --classes order.
                by_name = {}
                for entry in entries:
                    name, _, value = entry.partition("=")
                    by_name[name.strip()] = float(value)
                class_names = [spec.name for spec in args.classes]
                unknown = sorted(set(by_name) - set(class_names))
                if unknown:
                    raise SystemExit(
                        f"error: --traffic-class-weights names {unknown} "
                        f"do not match --classes {class_names}"
                    )
                weights = tuple(by_name.get(n, 0.0) for n in class_names)
            else:
                weights = tuple(float(w) for w in entries)
        return cls(
            dataset=args.dataset,
            scale=args.scale,
            samples=args.samples,
            neighbors=args.neighbors,
            seed=args.seed,
            frames=args.frames,
            verify=args.verify,
            metrics_out=args.metrics_out,
            p99_budget_ms=args.p99_budget_ms,
            request_timeout=args.request_timeout,
            min_load_sheds=args.min_load_sheds,
            traffic=TrafficConfig(
                model=args.traffic,
                rate_hz=args.rate_hz,
                raw_points=args.traffic_raw_points,
                class_weights=weights,
                params=dict(args.traffic_param),
            ),
            policy=PolicyConfig(
                classes=tuple(args.classes),
                default_class=args.default_class,
                admission=args.admission,
                max_backlog=args.max_backlog,
                rate_limit_hz=args.rate_limit_hz,
                rate_limit_burst=args.rate_limit_burst,
                adaptive_max_wait=args.adaptive_max_wait,
                min_wait_ms=args.min_wait_ms,
            ),
            execution=ExecutionConfig(
                workers=args.workers,
                execution=args.execution,
                shards=args.shards,
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait_ms,
                queue_capacity=args.queue_capacity,
                batch_rows_budget=args.batch_rows_budget,
                sampler=args.sampler,
                accelerator=args.accelerator,
                backend=args.backend,
                preprocess_workers=args.preprocess_workers,
            ),
            chaos=ChaosConfig(
                enabled=args.chaos,
                kill_after=args.chaos_kill_after,
                slow_ms=args.chaos_slow_ms,
            ),
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
        options: Dict[str, Any] = dict(
            config=self.hgpcn_config(),
            task=DATASET_TASKS[self.dataset],
            sampler=self.execution.sampler,
            accelerator=self.execution.accelerator,
            response_cache_size=0,
            backend=self.execution.backend,
            preprocess_workers=self.execution.preprocess_workers,
        )
        if self.execution.batch_rows_budget:
            options["batch_rows_budget"] = self.execution.batch_rows_budget
        return options

    def build_policy(self) -> Optional[ServingPolicy]:
        return self.policy.build()

    def build_faults(self) -> Optional[FaultPlan]:
        return self.chaos.build(self.seed, self.execution.workers)

    def build_traffic_items(self) -> List[TrafficItem]:
        """The request stream: traffic-model items, or dataset frames on a
        seeded Poisson schedule (the legacy path) when no model is set."""
        built_policy = self.build_policy()
        class_names: Tuple[str, ...] = ()
        if built_policy is not None and self.traffic.model is not None:
            class_names = tuple(
                cls.name for cls in built_policy.classes
            )
        model = self.traffic.build(
            frames=self.frames, seed=self.seed, class_names=class_names
        )
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
        """Constructor kwargs for ``FrameServer`` (or, with ``num_shards``
        and ``name`` added, ``ShardRouter``)."""
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
            policy=self.build_policy(),
        )

    def describe(self) -> Dict[str, Any]:
        policy = self.build_policy()
        return {
            "dataset": self.dataset,
            "frames": self.frames,
            "seed": self.seed,
            "traffic": (
                {"model": self.traffic.model, "rate_hz": self.traffic.rate_hz}
            ),
            "policy": policy.describe() if policy is not None else None,
            "workers": self.execution.workers,
            "execution": self.execution.execution,
            "shards": self.execution.shards,
        }
