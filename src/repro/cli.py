"""Command-line interface for the HgPCN reproduction.

Five subcommands cover the common workflows::

    python -m repro.cli figures [--exhibit fig14]   # reproduce tables/figures
    python -m repro.cli e2e [--dataset kitti] ...   # run the pipeline on frames
    python -m repro.cli serve [--frames 200] ...    # async serving soak
    python -m repro.cli samplers [--points 20000]   # compare down-sampling methods
    python -m repro.cli components [--kind sampler] # list registered components

``serve`` drives the asynchronous serving subsystem with synthetic
open-loop traffic (seeded Poisson arrivals), reports queue-wait/latency
percentiles and throughput as JSON, and gates on the soak invariants:
no dropped or rejected requests, futures resolving monotonically with
their own request's payload, per-request outputs bit-identical to a
sequential ``run_batch``, and p99 latency under a generous budget.  Every
request is one traffic class; ``--admission shed`` turns a full waiting
room's ``QueueFull`` into a typed ``LoadShed`` future, which
``--min-load-sheds`` then requires to have happened.

Pipeline components are addressed by their registry names, so ``e2e`` can
swap the down-sampler (``--sampler fps``) or the inference platform model
(``--accelerator pointacc``) without code changes.  The CLI only composes
public library APIs; everything it prints can also be produced
programmatically (see the examples/ directory).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import List, Optional, Sequence

from repro import registry
from repro.network.backends import resolve_backend
from repro.analysis.quality import (
    compare_samplers,
    quality_table_rows,
    registered_samplers,
)
from repro.analysis.reporting import format_table
from repro.core.config import HgPCNConfig, InferenceEngineConfig, PreprocessingConfig
from repro.datasets.synthetic import sample_cad_shape
from repro.serving.config import (
    DATASET_TASKS as _DATASET_TASKS,
    ServeConfig,
    fraction as _fraction,
    nonnegative_int as _nonnegative_int,
    positive_int as _positive_int,
)
from repro.session import FrameRequest, Session


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="HgPCN reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce the paper's tables and figures")
    figures.add_argument(
        "--exhibit",
        default="",
        help="substring filter, e.g. 'fig14' or 'table' (default: all)",
    )

    e2e = sub.add_parser("e2e", help="run the end-to-end pipeline on frames")
    e2e.add_argument(
        "--dataset", choices=sorted(_DATASET_TASKS), default="kitti"
    )
    e2e.add_argument("--scale", type=_fraction, default=0.005,
                     help="fraction of the paper-scale raw frame to generate")
    e2e.add_argument("--samples", type=_positive_int, default=1024,
                     help="down-sampled input size (default 1024)")
    e2e.add_argument("--neighbors", type=_positive_int, default=32)
    e2e.add_argument("--seed", type=_nonnegative_int, default=0)
    e2e.add_argument(
        "--frames", type=_positive_int, default=1,
        help="number of frames to run through one warm session (default 1)",
    )
    e2e.add_argument(
        "--batch-size", type=_nonnegative_int, default=0,
        help="serve frames through the batch-native path in chunks of this "
             "many frames (0 = one batch containing every frame)",
    )
    e2e.add_argument(
        "--sampler",
        choices=registry.available("sampler"),
        default="ois",
        help="registered down-sampling method (default: ois)",
    )
    e2e.add_argument(
        "--accelerator",
        choices=registry.available("accelerator"),
        default="hgpcn",
        help="registered inference platform model (default: hgpcn)",
    )
    e2e.add_argument(
        "--backend",
        choices=registry.available("backend"),
        default=None,
        help="registered compute backend for the network layers "
             "(default: session default -- REPRO_BACKEND env or fused)",
    )

    serve = sub.add_parser(
        "serve",
        help="asynchronous serving soak: queue -> micro-batches -> workers",
        description="Serve one seeded open-loop stream of one traffic class "
                    "through a FrameServer and gate on the soak invariants. "
                    "A full waiting room (--queue-capacity) rejects the "
                    "arrival with QueueFull, or under --admission shed "
                    "resolves it with LoadShed.",
    )
    # The flags live with the config they parse into (argparse groups:
    # traffic / execution / chaos) -- see repro.serving.config.
    ServeConfig.add_cli_args(serve)

    samplers = sub.add_parser("samplers", help="compare down-sampling methods")
    samplers.add_argument("--points", type=_positive_int, default=20_000)
    samplers.add_argument("--samples", type=_positive_int, default=1024)
    samplers.add_argument("--seed", type=_nonnegative_int, default=0)

    components = sub.add_parser(
        "components", help="list the registered pipeline components"
    )
    components.add_argument(
        "--kind",
        choices=list(registry.KINDS),
        default=None,
        help="restrict the listing to one component kind",
    )
    return parser


def _run_figures(exhibit: str) -> int:
    from repro.analysis.figures import match_reports

    matched = match_reports(exhibit)
    if not matched:
        print(f"no exhibit matches {exhibit!r}")
        return 1
    for report in matched:
        print(report.formatted())
        print()
    return 0


def _run_e2e(
    dataset: str,
    scale: float,
    samples: int,
    neighbors: int,
    seed: int,
    num_frames: int = 1,
    sampler: str = "ois",
    accelerator: str = "hgpcn",
    batch_size: int = 0,
    backend: Optional[str] = None,
) -> int:
    task = _DATASET_TASKS[dataset]
    source = registry.create(
        "dataset", dataset, num_frames=max(1, num_frames), seed=seed, scale=scale
    )
    config = HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=samples, seed=seed),
        inference=InferenceEngineConfig(
            num_centroids=max(8, samples // 4),
            neighbors_per_centroid=neighbors,
            seed=seed,
        ),
    )
    session = Session(
        config=config, task=task, sampler=sampler, accelerator=accelerator,
        backend=backend,
    )
    frames = [
        FrameRequest.from_frame(source.generate_frame(i))
        for i in range(max(1, num_frames))
    ]
    # The serving mode: every chunk travels the batch-native dispatch
    # (FrameBatch stacks through both engines and the stacked forward).
    # ``batch_size`` is argparse-validated to be >= 0; run_batch rejects
    # anything that is not a positive integer.
    chunk = batch_size if batch_size > 0 else len(frames)
    batch = session.run_batch(frames, batch_size=chunk)
    num_batches = (len(frames) + chunk - 1) // chunk
    responses = list(batch)
    response = responses[0]
    result = response.result

    spec = source.spec
    print(f"benchmark: {spec.name} ({spec.application}, model {spec.model})")
    print(f"pipeline: sampler={sampler} accelerator={accelerator} "
          f"backend={session.backend} task={task}")
    print(f"frame {result.frame_id}: {response.request.cloud.num_points} raw points -> "
          f"{result.preprocessing.sampled.num_points} sampled points")
    print(f"on-chip footprint: {result.preprocessing.onchip_megabits:.2f} Mb")
    rows = [[phase, seconds * 1e3] for phase, seconds in result.breakdown.as_dict().items()]
    rows.append(["total", result.total_seconds() * 1e3])
    print(format_table(["phase", "modelled latency [ms]"], rows))
    if len(responses) > 1:
        stats = session.stats()
        served_warm = sum(1 for r in responses if r.warm or r.cached)
        group_sizes = sorted(batch.groups.values(), reverse=True)
        print(
            f"\nsession: {stats['frames_processed']} frames in "
            f"{num_batches} batch(es), {stats['model_builds']} model "
            f"build(s), {100 * served_warm / len(responses):.0f}% served warm"
        )
        # Shape-group counts are merged across chunks (frames per shape
        # over the whole run), not per-dispatch batch sizes.
        print(
            "batched dispatch: frames per shape group "
            + ", ".join(str(size) for size in group_sizes)
        )
    return 0


def _run_serve(config: ServeConfig) -> int:
    """The serving soak: a ``ServeConfig``-described traffic stream through
    a FrameServer, gated on the soak invariants."""
    from repro.serving import (
        FrameServer,
        LoadShed,
        QueueFull,
        response_signature,
        signatures_equal,
    )
    from repro.serving.cluster import TransportError, shared_memory_available

    exec_cfg = config.execution
    if exec_cfg.execution == "process" and not shared_memory_available():
        print(
            "error: --execution process needs multiprocessing.shared_memory, "
            "which is unavailable on this platform; use --execution thread",
            file=sys.stderr,
        )
        return 2
    if config.chaos.enabled and exec_cfg.execution != "process":
        print(
            "error: --chaos kills worker processes, which requires "
            "--execution process",
            file=sys.stderr,
        )
        return 2
    faults = config.build_faults()
    task = _DATASET_TASKS[config.dataset]
    items = config.build_traffic_items()
    requests = [item.request for item in items]
    session_options = config.session_options()

    failures: List[str] = []

    # Ground truth for the bit-identity gate: the same requests through one
    # sequential frame-at-a-time session -- whatever traffic model and
    # admission mode drive the server, a served response must match this
    # exactly.
    expected = None
    if config.verify:
        reference = Session(**session_options).run_batch(requests, batch_size=1)
        expected = [response_signature(r) for r in reference.responses]

    server = FrameServer(**config.endpoint_options(len(requests), faults))
    try:
        server.start()
    except TransportError as exc:
        # E.g. no fork start method: refuse cleanly instead of half-starting.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    futures = []
    responses: List[Optional[object]] = []
    #: Typed non-served outcomes per request index ("load_shed");
    #: anything else that fails is a gate failure.
    typed_outcomes: dict = {}
    with server:
        start = time.perf_counter()
        for item in items:
            delay = start + item.arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures.append(server.submit(item.request))
            except QueueFull:
                futures.append(None)
        for i, future in enumerate(futures):
            if future is None:
                failures.append(f"request {i}: rejected by backpressure")
                responses.append(None)
                continue
            try:
                responses.append(
                    future.result(timeout=config.request_timeout)
                )
            except LoadShed:
                typed_outcomes[i] = "load_shed"
                responses.append(None)
            except FuturesTimeoutError:
                failures.append(
                    f"request {i}: no response within the "
                    f"{config.request_timeout:g}s --request-timeout"
                )
                responses.append(None)
            except Exception as exc:
                failures.append(f"request {i}: future failed: {exc!r}")
                responses.append(None)
        wall_seconds = time.perf_counter() - start
    metrics = server.metrics.snapshot()
    worker_stats = server.worker_stats()

    # -- soak gates ------------------------------------------------------
    counts = metrics["requests"]
    if (
        counts["rejected"] or counts["dropped"] or counts["failed"]
        or counts["in_flight"]
    ):
        failures.append(
            f"dropped/rejected/failed requests: {counts['rejected']} "
            f"rejected, {counts['dropped']} dropped, "
            f"{counts['failed']} failed, {counts['in_flight']} still "
            "in flight after drain"
        )
    # Every request must end in exactly one typed state: completed, or a
    # typed load shed observed on its own future.
    served = sum(1 for r in responses if r is not None)
    if counts["completed"] != served:
        failures.append(
            f"metrics report {counts['completed']} completed but "
            f"{served} futures resolved with responses"
        )
    if served + len(typed_outcomes) != len(requests):
        failures.append(
            f"completed {served} + typed sheds {len(typed_outcomes)} "
            f"!= {len(requests)} requests (something was lost silently)"
        )
    if not metrics["futures_monotonic"]:
        failures.append(
            "non-monotonic futures: a micro-batch resolved its futures out "
            "of admission order"
        )
    for i, (request, response) in enumerate(zip(requests, responses)):
        if response is None:
            continue
        if response.request.frame_id != request.frame_id:
            failures.append(
                f"request {i}: future resolved with frame "
                f"{response.request.frame_id!r}, expected "
                f"{request.frame_id!r}"
            )
            break
    if expected is not None:
        for i, response in enumerate(responses):
            if response is None:
                continue
            if not signatures_equal(response_signature(response), expected[i]):
                failures.append(
                    f"request {i} ({requests[i].frame_id}): served output "
                    "is NOT bit-identical to sequential run_batch"
                )
                break
    p99_ms = metrics["latency_ms"]["p99"]
    if config.p99_budget_ms > 0 and p99_ms > config.p99_budget_ms:
        failures.append(
            f"p99 latency {p99_ms:.1f} ms exceeds the "
            f"{config.p99_budget_ms:.0f} ms budget"
        )
    if config.min_load_sheds and counts["load_shed"] < config.min_load_sheds:
        failures.append(
            f"only {counts['load_shed']} load sheds recorded; the soak "
            f"requires >= {config.min_load_sheds} (--min-load-sheds) to "
            "prove shedding engaged"
        )
    resilience = metrics.get("resilience", {})
    if faults is not None:
        # A chaos soak that never retried means the fault plan never fired:
        # the kill landed after the run drained, so nothing was recovered.
        if not resilience.get("retries"):
            failures.append(
                "chaos soak recorded zero retries: the injected worker kill "
                "never fired (lower --chaos-kill-after or raise --frames)"
            )

    # -- report ----------------------------------------------------------
    traffic_model = (
        config.traffic.model if config.traffic.model is not None else "poisson"
    )
    report = {
        "serve": {
            "dataset": config.dataset,
            "task": task,
            "frames": config.frames,
            "workers": exec_cfg.workers,
            "execution": exec_cfg.execution,
            "sampler": exec_cfg.sampler,
            "accelerator": exec_cfg.accelerator,
            "backend": resolve_backend(exec_cfg.backend).describe(),
            "traffic": traffic_model,
            "rate_hz": config.traffic.rate_hz,
            "admission": exec_cfg.admission,
            "max_batch": exec_cfg.max_batch,
            "max_wait_ms": exec_cfg.max_wait_ms,
            "seed": config.seed,
            "verified_bit_identical": bool(expected is not None and not any(
                "bit-identical" in f for f in failures
            )),
            "request_timeout_seconds": config.request_timeout,
            "chaos": faults.describe() if faults is not None else None,
            "wall_seconds": round(wall_seconds, 4),
        },
        "checks": {"passed": not failures, "failures": failures},
        "metrics": metrics,
        "workers": worker_stats,
    }
    config.metrics_out.write_text(json.dumps(report, indent=2) + "\n")

    batches = metrics["batches"]
    busy = [stats["completed"] for stats in metrics["per_worker"].values()]
    idle = exec_cfg.workers - len(busy)
    rows = [
        ["requests served", f"{counts['completed']}/{len(requests)}"],
        ["traffic model", f"{traffic_model} at {config.traffic.rate_hz:g} Hz"],
        ["execution", exec_cfg.execution],
        ["compute backend", resolve_backend(exec_cfg.backend).name],
        ["workers x max-batch", f"{exec_cfg.workers} x {exec_cfg.max_batch}"],
        ["micro-batches", f"{batches['count']} "
         f"(mean occupancy {batches['mean_occupancy']:.2f})"],
        ["dispatch triggers", ", ".join(
            f"{name}={count}"
            for name, count in sorted(batches["triggers"].items())
        ) or "none"],
        ["queue wait p50/p95/p99 [ms]",
         "{p50:.2f} / {p95:.2f} / {p99:.2f}".format(**metrics["queue_wait_ms"])],
        ["latency p50/p95/p99 [ms]",
         "{p50:.2f} / {p95:.2f} / {p99:.2f}".format(**metrics["latency_ms"])],
        ["throughput [req/s]", f"{metrics['throughput_rps']:.1f}"],
        ["worker balance (min/max completed)",
         f"{0 if idle else min(busy, default=0)}/{max(busy, default=0)}"
         f" ({idle} idle)"],
        ["bit-identical vs sequential",
         "verified" if config.verify else "skipped"],
    ]
    if exec_cfg.execution == "process":
        shipped = sum(stats.get("response_bytes", 0) for stats in worker_stats)
        frames = sum(stats.get("frames_processed", 0) for stats in worker_stats)
        rows.append(
            ["response KB / frame", f"{shipped / max(1, frames) / 1e3:.1f}"]
        )
    if exec_cfg.admission == "shed":
        rows.append(["typed load sheds", str(counts["load_shed"])])
    if faults is not None:
        rows.append(["chaos (retries/sheds)",
                     "{retries}/{deadline_sheds}".format(**resilience)])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"Serving soak: {config.frames} frames of {config.dataset} "
                  f"({traffic_model} at {config.traffic.rate_hz:g} Hz)",
        )
    )
    print(f"wrote {config.metrics_out}")
    if failures:
        print("\nserving soak FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("serving soak passed")
    return 0


def _run_samplers(points: int, samples: int, seed: int) -> int:
    cloud = sample_cad_shape(points, shape="box", non_uniformity=0.3, seed=seed)
    qualities = compare_samplers(
        cloud,
        registered_samplers(seed=seed),
        num_samples=min(samples, points),
    )
    print(
        format_table(
            ["sampler", "coverage radius", "chamfer distance", "occupancy recall"],
            quality_table_rows(qualities),
            title=f"Sampling quality on a {points}-point frame ({samples} samples)",
        )
    )
    return 0


def _run_components(kind: Optional[str]) -> int:
    kinds = [kind] if kind else list(registry.KINDS)
    rows = []
    for k in kinds:
        for name in registry.available(k):
            rows.append([k, name, registry.get_factory(k, name).__name__])
    print(
        format_table(
            ["kind", "name", "factory"],
            rows,
            title="Registered pipeline components",
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        return _run_figures(args.exhibit)
    if args.command == "e2e":
        return _run_e2e(
            args.dataset,
            args.scale,
            args.samples,
            args.neighbors,
            args.seed,
            num_frames=args.frames,
            sampler=args.sampler,
            accelerator=args.accelerator,
            batch_size=args.batch_size,
            backend=args.backend,
        )
    if args.command == "serve":
        try:
            config = ServeConfig.from_args(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _run_serve(config)
    if args.command == "samplers":
        return _run_samplers(args.points, args.samples, args.seed)
    if args.command == "components":
        return _run_components(args.kind)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
