"""Host-side instruments: noise probe, memory high-water mark, environment.

Nothing here touches the pipeline; the probe exists so a result can say
whether the machine itself moved while a workload ran (``host.drift_share``)
and so absolute numbers from two hosts can be put side by side.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.resource_tracker
import os
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

#: A workload whose before/after probe drifts by more than this is ``noisy``.
NOISY_DRIFT_SHARE = 0.15

#: Environment variables that change BLAS threading or malloc behaviour; left
#: as found, recorded with every result.
RECORDED_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "MALLOC_ARENA_MAX",
    "MALLOC_MMAP_THRESHOLD_",
    "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_TOP_PAD_",
    "REPRO_BACKEND",
    "REPRO_PREPROCESS_WORKERS",
    "PYTHONHASHSEED",
)


def host_probe(rounds: int = 11, copy_mib: int = 32) -> Dict[str, float]:
    """Fixed matmul + memcpy probe (medians over ``rounds``).

    384x384 float64 GEMM is compute bound and fits L2; a 32 MiB copy streams
    from DRAM.  Together they bracket the two resources the pipeline leans on
    (the smoke run shrinks the copy: it only checks that the probe runs).
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    b = rng.standard_normal((384, 384))
    out = np.empty_like(a)
    src = np.ones(copy_mib * 1024 * 1024 // 8)
    dst = np.empty_like(src)
    np.matmul(a, b, out=out)  # first touch: page faults and BLAS thread start
    np.copyto(dst, src)
    matmul: List[float] = []
    memcpy: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(4):
            np.matmul(a, b, out=out)
        matmul.append((time.perf_counter() - start) / 4)
        start = time.perf_counter()
        np.copyto(dst, src)
        memcpy.append(time.perf_counter() - start)
    return {
        "matmul_ms": statistics.median(matmul) * 1e3,
        "memcpy_gbps": src.nbytes / statistics.median(memcpy) / 1e9,
    }


def drift_share(before: Dict[str, float], after: Dict[str, float]) -> float:
    """Largest relative move of either probe reading between two probes."""
    return max(
        abs(after[key] - before[key]) / before[key] for key in before
    )


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its live pool children.

    ``ru_maxrss`` covers this process; forked pool workers are read from
    ``/proc/<pid>/status`` (VmHWM) while still alive, so call this before the
    server shuts down.  Children already reaped fall back to
    ``RUSAGE_CHILDREN`` (largest child only).
    """
    total_kib = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    live = 0.0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                live += float(line.split()[1])
    if live == 0.0:
        live = float(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return (total_kib + live) / 1024.0


def environment(root: Path) -> Dict[str, Any]:
    """What a reader needs to interpret absolute numbers from this host."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "env": {name: os.environ.get(name) for name in RECORDED_ENV},
    }


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's shared-memory tracker process.

    Shared-memory transport starts it as a child of this process; left alone
    it exits only after we do, i.e. the benchmark would leave a process behind.
    ``_stop`` is CPython's own (test-suite) way to end it; absent, do nothing.
    """
    tracker = getattr(multiprocessing.resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
