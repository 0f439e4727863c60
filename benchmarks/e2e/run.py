#!/usr/bin/env python3
"""End-to-end benchmark of the HgPCN reproduction (see README.md).

One workload, the way the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload lidar100k_direct --seed 0 --seconds 15 --trace 0

``--trace 0`` runs the untraced timed phase and reports the end-to-end
metrics; ``--trace 1`` runs the traced pass and reports the per-layer metrics.
The last line of standard output is one JSON object.

Without ``--workload`` every workload runs, each mode in its own fresh child
process, one at a time, and ``out/result.json`` collects the lot::

    python3 benchmarks/e2e/run.py --seed 0 [--repeat 5] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: Set-ups per ``--trace 0`` run (``setup_s`` is their median): at least
#: MIN_SETUPS, then more while they are cheap -- a 0.3 s set-up needs more
#: than three samples to shrug off one host hiccup.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
#: Timed seconds per smoke run.
SMOKE_SECONDS = 0.2


def run_one(args: argparse.Namespace) -> int:
    """One workload, one mode, in this process."""
    import e2e_host
    import e2e_report
    from e2e_replay import traced_pass
    from e2e_workloads import BY_NAME, CHECK_FRAMES, check_outputs, measure, set_up

    workload = BY_NAME[args.workload]
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    probe = dict(rounds=3, copy_mib=2) if args.smoke else dict(rounds=11)
    before = e2e_host.host_probe(**probe)
    setups: List[float] = []
    ctx = None
    try:
        while not setups or (
            not (trace or args.smoke)
            and len(setups) < MAX_SETUPS
            and (len(setups) < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S)
        ):
            if ctx is not None:
                ctx.close()
                ctx = None
                gc.collect()  # or peak_rss_mb would count the discarded set-ups
            ctx, seconds = set_up(workload, args.seed, args.smoke)
            setups.append(seconds)
        mismatches, labels_digest = check_outputs(ctx)
        if trace:
            result = traced_pass(ctx, args.seconds, OUT / f"trace_{workload.name}.jsonl")
        else:
            result = measure(ctx, args.seconds)
            result.put("setup_s", statistics.median(setups), "s", len(setups))
            result.samples["setup_s"] = setups
    finally:
        if ctx is not None:
            ctx.close()
        e2e_host.stop_resource_tracker()
    after = e2e_host.host_probe(**probe)
    drift = e2e_host.drift_share(before, after)
    result.attempted += CHECK_FRAMES
    result.failed += mismatches
    if trace:
        result.put("host.matmul_ms", after["matmul_ms"], "ms", probe["rounds"])
        result.put("host.memcpy_gbps", after["memcpy_gbps"], "GB/s", probe["rounds"])
        result.put("host.drift_share", drift, "share", 2)
    else:
        result.put("failed_share", result.failed / result.attempted, "share", result.attempted)

    metrics = {
        name: {"value": value, "unit": unit, "samples": samples}
        for name, (value, unit, samples) in result.metrics.items()
    }
    names = {m.name for m in e2e_report.expected(workload.name, trace)}
    if set(metrics) != names:
        raise SystemExit(
            f"{workload.name}: metrics differ from the catalogue: "
            f"missing {sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}"
        )
    correct = result.failed == 0
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": int(trace),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "labels_digest": labels_digest,
        "noisy": drift > e2e_host.NOISY_DRIFT_SHARE,
        "host_probe": {"before": before, "after": after, "drift_share": drift},
        "metrics": metrics,
        "samples": result.samples,
    }
    (OUT / f"run_{workload.name}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    e2e_report.print_metrics(workload.name, metrics)
    if trace:
        e2e_report.print_stage_shares(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    m.name: {"value": metrics[m.name]["value"], "unit": m.unit}
                    for m in e2e_report.gated(trace)
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each mode in a fresh child process, one at a time."""
    import e2e_host
    import e2e_report
    from e2e_workloads import WORKLOADS

    # Layer weights are seeded from hash(layer name): pin the string hash in
    # the children so labels_digest means the same in every run.
    os.environ.setdefault("PYTHONHASHSEED", "0")
    status = 0
    result: Dict[str, Any] = {
        "schema": e2e_report.SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeat": args.repeat,
        "host": e2e_host.environment(ROOT),
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs: List[Dict[str, Any]] = []
        for trace in [0] * args.repeat + [1]:
            record = OUT / f"run_{workload.name}_trace{trace}.json"
            record.unlink(missing_ok=True)
            if args.smoke:
                # Same code paths, minus the fresh process per run: the smoke
                # test has seconds, and isolation only matters for timings.
                code = run_one(
                    argparse.Namespace(**{**vars(args), "workload": workload.name, "trace": trace})
                )
            else:
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload.name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]
                code = subprocess.run(command, cwd=ROOT, timeout=600).returncode
            status |= code
            if record.exists():
                runs.append(json.loads(record.read_text()))
            else:
                print(f"{workload.name} --trace {trace} exited {code} without a record", file=sys.stderr)
        timed = [run for run in runs if not run["trace"]]
        traced = [run for run in runs if run["trace"]]
        if not timed or not traced:
            continue
        merged = e2e_report.merge_runs(timed)
        layers = e2e_report.merge_runs(traced)
        merged["metrics"].update(layers["metrics"])
        merged["correct"] &= layers["correct"]
        merged["noisy"] |= layers["noisy"]
        result["workloads"][workload.name] = merged
    path = Path(args.out) if args.out else OUT / "result.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {path}")
    for name, record in result["workloads"].items():
        flags = ("" if record["correct"] else "  INCORRECT") + ("  noisy" if record["noisy"] else "")
        print(
            f"{name:22s} "
            + "  ".join(
                f"{m.name}={e2e_report.format_value(record['metrics'][m.name]['value'])} {m.unit}"
                for m in e2e_report.gated(False)
            )
            + flags
        )
    if len(result["workloads"]) != len(WORKLOADS):
        status |= 2
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny frames, same code paths")
    parser.add_argument("--repeat", type=int, default=1, help="timed runs per workload")
    parser.add_argument("--out", help="where to write result.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    if args.compare:
        import e2e_report

        return e2e_report.compare(*(Path(p) for p in args.compare))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no pipeline to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is None:
        args.seconds = (
            SMOKE_SECONDS
            if args.smoke
            else float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
        )
    if args.workload:
        from e2e_workloads import BY_NAME

        if args.workload not in BY_NAME:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(BY_NAME)}")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
