"""Metric catalogue, result records, printed tables and ``--compare``.

The catalogue is the one place a metric's unit, direction, bound and scope
are written down.  ``BENCHMARK.json`` repeats the part of it that every
workload reports (the driver's contract allows no further keys there); the
smoke test keeps the two in step.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SCHEMA = "hgpcn-e2e/1"

DIRECT = ("cls1k_direct", "lidar100k_direct")
SERVED = ("stream_small_thread", "stream_lidar_process")
CLASSIFICATION = ("cls1k_direct", "stream_small_thread")
SEGMENTATION = ("lidar100k_direct", "stream_lidar_process")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Allowed worsening (share of the baseline) before ``--compare`` calls a
    #: regression; ``None`` marks a number that is reported but not judged.
    bound: Optional[float] = None
    #: "e2e" or the repo module the number belongs to.
    layer: str = "e2e"
    #: Workloads that report it; ``None`` means all four.
    workloads: Optional[Tuple[str, ...]] = None


def _layer(layer: str, *specs: Tuple[Any, ...]) -> List[Metric]:
    return [
        Metric(f"{layer}.{name}", unit, better, None, layer, *scope)
        for name, unit, better, *scope in specs
    ]


CATALOGUE: Tuple[Metric, ...] = (
    # End to end: what a caller of the system sees.  The first four are
    # reported by every workload and are the ones BENCHMARK.json gates.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("frames_per_s", "1/s", "higher", 0.25),
    Metric("latency_ms_p50", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
    Metric("failed_share", "share", "lower", 0.0),
    Metric("frame_ms_p50", "ms", "lower", 0.25, workloads=DIRECT),
    Metric("frame_ms_p90", "ms", "lower", None, workloads=DIRECT),
    Metric("latency_ms_p50.r20", "ms", "lower", 0.25, workloads=SERVED[:1]),
    *_layer(
        "session",
        ("coerce_ms", "ms", "lower"),
        ("digest_ms", "ms", "lower", DIRECT[:1]),
        ("residual_ms", "ms", "lower"),
        ("cache_hit_share", "share", "higher"),
    ),
    *_layer(
        "core",
        ("stack_ms", "ms", "lower"),
        ("preprocess_ms", "ms", "lower"),
        ("inference_ms", "ms", "lower"),
        ("pre_self_ms", "ms", "lower"),
        ("inf_self_ms", "ms", "lower"),
    ),
    *_layer(
        "octree",
        ("build_ms", "ms", "lower"),
        ("table_ms", "ms", "lower"),
        ("nodes", "count", "lower"),
        ("depth", "levels", "lower"),
    ),
    *_layer(
        "sampling",
        ("sample_ms", "ms", "lower"),
        ("node_visits", "count", "lower"),
        ("distance_computations", "count", "lower"),
    ),
    *_layer(
        "datastructuring",
        ("gather_sa1_ms", "ms", "lower"),
        ("gather_sa2_ms", "ms", "lower"),
        ("expansions_mean", "count", "lower"),
        ("sorted_per_neighbor", "ratio", "lower"),
    ),
    *_layer(
        "network",
        ("forward_ms", "ms", "lower"),
        ("forward_ms_p90", "ms", "lower"),
        ("sa1_ms", "ms", "lower"),
        ("sa2_ms", "ms", "lower"),
        ("sa3_ms", "ms", "lower", CLASSIFICATION),
        ("fp1_ms", "ms", "lower", SEGMENTATION),
        ("fp0_ms", "ms", "lower", SEGMENTATION),
        ("head_ms", "ms", "lower"),
        ("mac_ops", "count", "lower"),
    ),
    # Outputs of the repo's analytic hardware model, not measurements: any
    # move in a performance change is a correctness finding.
    *_layer(
        "modelled",
        ("preprocessing_ms", "modelled_ms", "lower"),
        ("inference_ms", "modelled_ms", "lower"),
    ),
    *_layer(
        "serving",
        ("queue_submit_pop_us", "us", "lower"),
        ("scheduler_add_ready_us", "us", "lower"),
        ("submit_us_p50", "us", "lower", SERVED),
        ("queue_wait_ms_p50", "ms", "lower", SERVED),
        ("service_ms_p50", "ms", "lower", SERVED),
        ("batch_size_mean", "frames", "higher", SERVED),
        ("size_trigger_share", "share", "higher", SERVED),
        ("resolve_lag_ms_p50", "ms", "lower", SERVED),
        ("worker_balance", "share", "higher", SERVED),
        ("latency_ms_p90.r10", "ms", "lower", SERVED[:1]),
        ("latency_ms_p90.r20", "ms", "lower", SERVED[:1]),
        ("backlog_end.r10", "count", "lower", SERVED[:1]),
        ("backlog_end.r20", "count", "lower", SERVED[:1]),
        ("backlog_end.overload", "count", "higher", SERVED[:1]),
        ("generator_late_ms_p99.r10", "ms", "lower", SERVED[:1]),
        ("generator_late_ms_p99.r20", "ms", "lower", SERVED[:1]),
        ("generator_late_ms_p99.overload", "ms", "lower", SERVED[:1]),
        ("direct_frames_per_s", "1/s", "higher", SERVED[:1]),
        ("served_over_direct", "ratio", "higher", SERVED[:1]),
    ),
    *_layer(
        "cluster",
        ("encode_request_ms", "ms", "lower"),
        ("decode_request_ms", "ms", "lower"),
        ("encode_response_ms", "ms", "lower"),
        ("decode_response_ms", "ms", "lower"),
        ("request_mb", "MB", "lower"),
        ("response_mb", "MB", "lower"),
    ),
    *_layer(
        "host",
        ("matmul_ms", "ms", "lower"),
        ("memcpy_gbps", "GB/s", "higher"),
        ("drift_share", "share", "lower"),
    ),
    *_layer(
        "trace",
        ("coverage_share", "share", "higher"),
        ("replay_over_untraced", "ratio", "lower"),
        ("blocks_over_forward", "ratio", "lower"),
    ),
)

BY_NAME = {metric.name: metric for metric in CATALOGUE}


def gated(trace: bool) -> List[Metric]:
    """The metrics every workload reports in one mode (the driver's set)."""
    return [
        m
        for m in CATALOGUE
        if m.workloads is None
        and (m.layer != "e2e") == trace
        and (trace or (m.bound is not None and m.bound > 0))
    ]


def expected(workload: str, trace: bool) -> List[Metric]:
    """Every catalogue metric ``workload`` reports in one mode."""
    return [
        m
        for m in CATALOGUE
        if (m.workloads is None or workload in m.workloads)
        and (m.layer != "e2e") == trace
    ]


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def format_value(value: float) -> str:
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(f"\n== {workload}")
    print(f"{'metric':44s} {'value':>16s} {'unit':12s} {'samples':>8s}  kind")
    for name in sorted(metrics, key=lambda n: (BY_NAME[n].layer != "e2e", n)):
        entry, spec = metrics[name], BY_NAME[name]
        kind = "end-to-end" if spec.layer == "e2e" else spec.layer
        if spec.bound is not None:
            kind += f" (bound {spec.bound:.0%})"
        print(
            f"{name:44s} {format_value(entry['value']):>16s} {entry['unit']:12s} "
            f"{entry['samples']:>8d}  {kind}"
        )


def print_stage_shares(metrics: Dict[str, Dict[str, Any]]) -> None:
    """Measured engine times beside the analytic model's, one table."""
    measured = [metrics[f"core.{s}_ms"]["value"] for s in ("preprocess", "inference")]
    modelled = [metrics[f"modelled.{s}_ms"]["value"] for s in ("preprocessing", "inference")]
    print(f"{'stage':16s} {'measured ms':>12s} {'share':>7s} {'modelled ms':>12s} {'share':>7s}")
    for stage, real, model in zip(("preprocessing", "inference"), measured, modelled):
        print(
            f"{stage:16s} {real:12.3f} {real / sum(measured):7.1%} "
            f"{model:12.4f} {model / sum(modelled):7.1%}"
        )


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def relative_spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def merge_runs(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold repeated runs of one workload into one record: each metric's
    value becomes the median, with the runs and their spread kept."""
    merged = {k: v for k, v in runs[0].items() if k != "samples"}
    merged["noisy"] = any(run["noisy"] for run in runs)
    merged["correct"] = all(run["correct"] for run in runs)
    merged["attempted"] = sum(run["attempted"] for run in runs)
    merged["failed"] = sum(run["failed"] for run in runs)
    merged["metrics"] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            slot = merged["metrics"].setdefault(name, dict(entry, runs=[]))
            slot["runs"].append(entry["value"])
    for slot in merged["metrics"].values():
        slot["value"] = statistics.median(slot["runs"])
        slot["spread"] = relative_spread(slot["runs"])
    return merged


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _calibrated_spread(workload: str, metric: str) -> float:
    path = HERE / "calibration.json"
    if not path.exists():
        return 0.0
    entry = json.loads(path.read_text())["workloads"].get(workload, {})
    return entry.get("metrics", {}).get(metric, {}).get("spread", 0.0)


def verdict(
    spec: Metric, base: Dict[str, Any], new: Dict[str, Any], spread: float, noisy: bool
) -> Tuple[float, str]:
    """(relative worsening of ``new`` against ``base``, verdict)."""
    a, b = base["value"], new["value"]
    assert spec.bound is not None
    if spec.bound == 0:  # failed_share: any increase regresses
        return b - a, "regressed" if b > a else "ok"
    worse = (b - a) / a if spec.better == "lower" else (a - b) / a
    if worse > spec.bound:
        return worse, "regressed"
    if spread > spec.bound:
        # Too wide to resolve -- unless every new run beats every base run.
        runs_a, runs_b = base.get("runs", [a]), new.get("runs", [b])
        clear = (
            max(runs_b) < min(runs_a)
            if spec.better == "lower"
            else min(runs_b) > max(runs_a)
        )
        if not clear:
            return worse, "unresolved"
    return worse, "unresolved" if noisy else "ok"


def compare(path_a: Path, path_b: Path) -> int:
    """Print every workload x end-to-end metric of two results; 1 on regression."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    print(f"base {path_a} ({a['host']['commit'][:12]})  new {path_b} ({b['host']['commit'][:12]})")
    print(
        f"{'workload':22s} {'metric':22s} {'base':>12s} {'new':>12s} "
        f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    regressed = False
    for workload, base in a["workloads"].items():
        new = b["workloads"].get(workload)
        if new is None:
            continue
        noisy = bool(base["noisy"] or new["noisy"])
        for spec in expected(workload, trace=False):
            if spec.bound is None or spec.name not in base["metrics"] or spec.name not in new["metrics"]:
                continue
            old_m, new_m = base["metrics"][spec.name], new["metrics"][spec.name]
            spread = max(
                old_m.get("spread", 0.0), new_m.get("spread", 0.0)
            ) or _calibrated_spread(workload, spec.name)
            worse, label = verdict(spec, old_m, new_m, spread, noisy)
            regressed |= label == "regressed"
            print(
                f"{workload:22s} {spec.name:22s} {format_value(old_m['value']):>12s} "
                f"{format_value(new_m['value']):>12s} {worse:+9.1%} {spec.bound:6.0%} "
                f"{spread:7.1%}  {label}{' (noisy host)' if noisy else ''}"
            )
        if base.get("labels_digest") != new.get("labels_digest"):
            print(f"{workload:22s} labels_digest differs: outputs drifted between the two commits")
    return 1 if regressed else 0
