#!/usr/bin/env python3
"""Unified benchmark harness: kernel perf scenarios + the paper's exhibits.

Default mode runs every vectorized-kernel scenario against its retained
scalar reference (:mod:`repro.kernels.reference`), verifies the results are
bit-identical (indices, neighbor rows, counters), and writes a consolidated
``BENCH_kernels.json`` with per-stage wall times, op counters, and speedups.
That file is the perf-trajectory anchor for future PRs: CI runs the quick
variant and fails when any scenario falls below its per-scenario
regression budget or absolute ``min_speedup`` floor recorded in
``benchmarks/baselines/``.

Usage::

    python benchmarks/run_all.py                    # full-size scenarios
    python benchmarks/run_all.py --quick            # CI-sized scenarios
    python benchmarks/run_all.py --only ois veg     # subset by substring
    python benchmarks/run_all.py --check-baseline   # enforce the recorded baseline
    python benchmarks/run_all.py --exhibits [needle]  # print paper tables/figures

Follows the run-all -> JSON -> comparison harness idiom of the
qml-cutensornet reproduction exemplar.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.metrics import OpCounters  # noqa: E402
from repro.datasets.synthetic import sample_cad_shape  # noqa: E402
from repro.datastructuring.ballquery import BallQueryGatherer  # noqa: E402
from repro.datastructuring.base import pick_random_centroids  # noqa: E402
from repro.datastructuring.veg import VoxelExpandedGatherer  # noqa: E402
from repro.geometry.morton import morton_encode_points  # noqa: E402
from repro.geometry.voxelgrid import suggest_depth  # noqa: E402
from repro.kernels import bucketize_codes, hamming_codes  # noqa: E402
from repro.kernels import reference as ref  # noqa: E402
from repro.octree.builder import Octree  # noqa: E402
from repro.octree.linear import OctreeTable  # noqa: E402
from repro.sampling.fps import FarthestPointSampler  # noqa: E402
from repro.sampling.ois import OctreeIndexedSampler  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "BENCH_kernels_baseline.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernels.json"
#: Append-only perf trajectory: every harness run appends one
#: commit-stamped record (one JSON object per line), so speedups are
#: traceable across the PR sequence without digging through CI artifacts.
HISTORY_PATH = Path(__file__).resolve().parent / "history.jsonl"

#: Fallback relative budget for baseline entries that do not record their
#: own.  Every scenario in the checked-in baseline carries a per-scenario
#: ``budget`` (how far below its recorded speedup it may fall before
#: --check-baseline fails) and a ``min_speedup`` absolute floor; this
#: constant only backstops hand-edited or legacy bare-number entries.
DEFAULT_REGRESSION_BUDGET = 2.0


@dataclasses.dataclass
class Scenario:
    """One kernel-vs-reference measurement.

    ``run_vectorized`` / ``run_reference`` are zero-argument callables
    returning ``(comparable, counters_or_None)``; ``comparable`` feeds the
    equivalence check.  By default that check is strict bit-identity
    (``np.array_equal`` on arrays, ``==`` on scalars); scenarios whose
    measured path carries a documented tolerance contract instead of
    bit-identity (e.g. the fused compute backend) supply ``compare`` --
    the contract's own predicate -- and name the contract in ``contract``
    so the report states what was asserted.

    ``min_speedup`` is an absolute floor enforced by ``--check-baseline``
    on top of the relative regression gate: scenarios that exist to prove
    an optimisation pays (not merely that it has not regressed) record the
    promised factor here.

    ``collect_metrics``, when set, is called once after the timing rounds
    and its return value lands under ``"metrics"`` in the scenario's
    result record -- the shed-admission serving scenario records its
    ``ServingMetrics`` snapshot (load sheds, latency percentiles) this way.

    ``teardown``, when set, is called once after ``collect_metrics`` (and
    when a run raises): the serving scenarios shut down the servers their
    runs cached, so no worker outlives its scenario.
    """

    name: str
    stage: str
    params: Dict[str, Any]
    run_vectorized: Callable[[], Tuple[Any, Optional[OpCounters]]]
    run_reference: Callable[[], Tuple[Any, Optional[OpCounters]]]
    compare: Optional[Callable[[Any, Any], bool]] = None
    contract: str = "bit_identical"
    min_speedup: Optional[float] = None
    collect_metrics: Optional[Callable[[], Any]] = None
    teardown: Optional[Callable[[], None]] = None


def _counters_dict(counters: Optional[OpCounters]) -> Optional[Dict[str, int]]:
    return None if counters is None else dataclasses.asdict(counters)


def _table_comparable(fields: Dict[str, Any]) -> Tuple[Any, ...]:
    """The parallel arrays of an Octree-Table, for bit-identity checks.

    ``fields`` is ``vars(table)`` or ``reference.octree_table_scalar``'s
    dict, which uses the table's field names.
    """
    return tuple(
        fields[name]
        for name in (
            "codes",
            "levels",
            "leaf_flags",
            "child_bounds",
            "child_rows",
            "child_octants",
            "addr_starts",
            "addr_ends",
            "root_index",
            "num_points",
        )
    )


def _equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_equal(a[k], b[k]) for k in a)
        )
    return a == b


# ----------------------------------------------------------------------
# Scenario definitions
# ----------------------------------------------------------------------
def build_scenarios(quick: bool) -> List[Scenario]:
    scale = 0.08 if quick else 1.0

    def sized(full: int, minimum: int = 512) -> int:
        return max(minimum, int(full * scale))

    scenarios: List[Scenario] = []
    rng = np.random.default_rng(0)

    # --- geometry: Morton encode -------------------------------------
    n_codes = sized(1_000_000, 50_000)
    cloud_codes = sample_cad_shape(n_codes, shape="box", non_uniformity=0.3, seed=1)
    box = cloud_codes.bounds().as_cube(padding=1e-9)
    depth = 9
    scenarios.append(
        Scenario(
            name="morton_encode",
            stage="geometry",
            params={"num_points": n_codes, "depth": depth},
            run_vectorized=lambda: (
                morton_encode_points(cloud_codes.points, box, depth), None
            ),
            run_reference=lambda: (
                ref.scalar_morton_encode_points(cloud_codes.points, box, depth),
                None,
            ),
        )
    )

    # --- geometry: Hamming popcount ----------------------------------
    n_ham = sized(2_000_000, 100_000)
    codes_a = rng.integers(0, 1 << 62, size=n_ham).astype(np.int64)
    seed_code = int(rng.integers(0, 1 << 62))
    scenarios.append(
        Scenario(
            name="hamming_popcount",
            stage="geometry",
            params={"num_codes": n_ham},
            run_vectorized=lambda: (hamming_codes(codes_a, seed_code), None),
            run_reference=lambda: (
                ref.scalar_hamming_array(codes_a, seed_code), None
            ),
        )
    )

    # --- datastructuring: leaf bucketing -----------------------------
    n_bucket = sized(500_000, 50_000)
    bucket_codes = rng.integers(0, n_bucket // 4, size=n_bucket).astype(np.int64)

    def run_bucketize_vec():
        order, uniq, starts, counts = bucketize_codes(bucket_codes)
        return (order, uniq, starts, counts), None

    def run_bucketize_ref():
        buckets = ref.dict_bucketize(bucket_codes)
        uniq = np.fromiter(buckets.keys(), dtype=np.int64, count=len(buckets))
        order = np.concatenate(list(buckets.values()))
        counts = np.fromiter(
            (len(v) for v in buckets.values()), dtype=np.intp, count=len(buckets)
        )
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
        return (order, uniq, starts, counts), None

    scenarios.append(
        Scenario(
            name="leaf_bucketing",
            stage="datastructuring",
            params={"num_codes": n_bucket},
            run_vectorized=run_bucketize_vec,
            run_reference=run_bucketize_ref,
        )
    )

    # --- octree: build ------------------------------------------------
    n_tree = sized(100_000, 8_000)
    cloud_tree = sample_cad_shape(n_tree, shape="box", non_uniformity=0.3, seed=2)
    tree_depth = 8 if not quick else 6

    def run_tree_vec():
        octree = Octree.build(cloud_tree, depth=tree_depth)
        return (
            octree.leaf_codes,
            octree.point_codes,
            octree.points_in_sfc_order(),
            dataclasses.astuple(octree.stats),
        ), None

    def run_tree_ref():
        octree = ref.build_octree_scalar(cloud_tree, depth=tree_depth)
        return (
            octree.leaf_codes,
            octree.point_codes,
            octree.points_in_sfc_order(),
            dataclasses.astuple(octree.stats),
        ), None

    scenarios.append(
        Scenario(
            name="octree_build",
            stage="octree",
            params={"num_points": n_tree, "depth": tree_depth},
            run_vectorized=run_tree_vec,
            run_reference=run_tree_ref,
        )
    )

    # --- octree: Octree-Table construction ----------------------------
    n_table = sized(100_000, 8_000)
    table_depth = 8 if not quick else 6
    cloud_table = sample_cad_shape(
        n_table, shape="box", non_uniformity=0.3, seed=7
    )
    octree_for_flat = Octree.build(cloud_table, depth=table_depth)
    octree_for_walk = Octree.build(cloud_table, depth=table_depth)

    # Both sides run cold every round -- the per-frame cost each path really
    # pays downstream of ``Octree.build``: the flat side re-derives its
    # per-level code arrays and slot bounds, the scalar side builds its
    # pointer tree from the leaf codes and walks it.
    def run_table_vec():
        octree_for_flat._level_codes = None
        octree_for_flat._slot_bounds = None
        return _table_comparable(vars(OctreeTable.from_flat(octree_for_flat))), None

    def run_table_ref():
        return _table_comparable(ref.octree_table_scalar(octree_for_walk)), None

    scenarios.append(
        Scenario(
            name="octree_table",
            stage="octree",
            params={"num_points": n_table, "depth": table_depth},
            run_vectorized=run_table_vec,
            run_reference=run_table_ref,
        )
    )

    # --- sampling: FPS ------------------------------------------------
    n_fps = sized(50_000, 8_000)
    k_fps = 256 if not quick else 128
    cloud_fps = sample_cad_shape(n_fps, shape="sphere", non_uniformity=0.2, seed=3)

    def run_fps_vec():
        result = FarthestPointSampler(seed=0).sample(cloud_fps, k_fps)
        return (result.indices, result.info["nearest_distance_max"]), None

    scenarios.append(
        Scenario(
            name="fps_sampling",
            stage="sampling",
            params={"num_points": n_fps, "num_samples": k_fps},
            run_vectorized=run_fps_vec,
            run_reference=lambda: (ref.fps_scalar(cloud_fps, k_fps, seed=0), None),
        )
    )

    # --- sampling: OIS ------------------------------------------------
    n_ois = sized(100_000, 8_000)
    k_ois = 1024 if not quick else 128
    cloud_ois = sample_cad_shape(n_ois, shape="box", non_uniformity=0.3, seed=4)

    def run_ois_vec():
        result = OctreeIndexedSampler(seed=0).sample(cloud_ois, k_ois)
        return result.indices, result.counters

    def run_ois_ref():
        indices, counters = ref.ois_scalar(cloud_ois, k_ois, seed=0)
        return indices, counters

    scenarios.append(
        Scenario(
            name="ois_sampling",
            stage="sampling",
            params={"num_points": n_ois, "num_samples": k_ois},
            run_vectorized=run_ois_vec,
            run_reference=run_ois_ref,
        )
    )

    # --- sampling: the OIS walk vs the frozen array-ranked loop -------
    # ``ois_sampling`` above measures the whole sampler against the fully
    # scalar dict-walk reference; this scenario isolates the sampling loop
    # by pitting the per-pick round-mask walk (one table read per level)
    # against ``ois_sample_scalar`` --
    # the one-sample loop that ranks each level with array ops -- on a
    # pre-built octree (build cost excluded from both sides).  The sample
    # count is deliberately large, so per-frame set-up does not hide the
    # per-pick cost, and the floor documents the promised factor at the
    # paper's heaviest down-sampling shape.  The scenario keeps the name
    # ``ois_wavefront`` so its history and baselines stay continuous.
    n_wf = sized(100_000, 8_000)
    k_wf = 8192 if not quick else 1024
    cloud_wf = sample_cad_shape(n_wf, shape="box", non_uniformity=0.3, seed=4)
    octree_wf = Octree.build(cloud_wf, depth=suggest_depth(n_wf))

    def run_wf_vec():
        result = OctreeIndexedSampler(seed=0).sample(
            cloud_wf, k_wf, octree=octree_wf
        )
        return result.indices, result.counters

    def run_wf_ref():
        indices, counters = ref.ois_sample_scalar(
            cloud_wf, k_wf, seed=0, octree=octree_wf
        )
        return indices, counters

    scenarios.append(
        Scenario(
            name="ois_wavefront",
            stage="sampling",
            params={"num_points": n_wf, "num_samples": k_wf},
            run_vectorized=run_wf_vec,
            run_reference=run_wf_ref,
            min_speedup=3.0 if not quick else 1.2,
        )
    )

    # --- datastructuring: VEG gathering ------------------------------
    n_veg = sized(100_000, 8_000)
    m_veg = 1024 if not quick else 128
    k_veg = 32 if not quick else 16
    cloud_veg = sample_cad_shape(n_veg, shape="box", non_uniformity=0.3, seed=5)
    cents_veg = pick_random_centroids(cloud_veg, m_veg, seed=0)

    def run_veg_vec():
        result = VoxelExpandedGatherer(seed=0).gather(cloud_veg, cents_veg, k_veg)
        return result.neighbor_indices, result.counters

    def run_veg_ref():
        rows, counters, _ = ref.veg_scalar(cloud_veg, cents_veg, k_veg)
        return rows, counters

    scenarios.append(
        Scenario(
            name="veg_gathering",
            stage="gathering",
            params={
                "num_points": n_veg,
                "num_centroids": m_veg,
                "neighbors": k_veg,
            },
            run_vectorized=run_veg_vec,
            run_reference=run_veg_ref,
        )
    )

    # --- datastructuring: VEG ball-query mode ------------------------
    m_ball = 512 if not quick else 128
    cents_ball = pick_random_centroids(cloud_veg, m_ball, seed=1)
    # Radius sized so the fixed shell budget stays a handful of rings at the
    # suggested grid depth for the frame size.
    ball_radius = (0.05 if quick else 0.02) * float(
        cloud_veg.bounds().as_cube().size.max()
    )

    def run_veg_ball_vec():
        result = VoxelExpandedGatherer(ball_radius=ball_radius, seed=0).gather(
            cloud_veg, cents_ball, k_veg
        )
        return result.neighbor_indices, result.counters

    def run_veg_ball_ref():
        rows, counters, _ = ref.veg_scalar(
            cloud_veg, cents_ball, k_veg, ball_radius=ball_radius
        )
        return rows, counters

    scenarios.append(
        Scenario(
            name="veg_ballquery",
            stage="gathering",
            params={
                "num_points": n_veg,
                "num_centroids": m_ball,
                "neighbors": k_veg,
                "ball_radius": round(ball_radius, 6),
            },
            run_vectorized=run_veg_ball_vec,
            run_reference=run_veg_ball_ref,
        )
    )

    # --- datastructuring: brute-force ball query ----------------------
    n_bq = sized(20_000, 4_000)
    m_bq = 1024 if not quick else 256
    cloud_bq = sample_cad_shape(n_bq, shape="box", non_uniformity=0.3, seed=6)
    cents_bq = pick_random_centroids(cloud_bq, m_bq, seed=2)
    bq_radius = 0.1 * float(cloud_bq.bounds().as_cube().size.max())

    def run_bq_vec():
        result = BallQueryGatherer(radius=bq_radius).gather(cloud_bq, cents_bq, 16)
        return (
            result.neighbor_indices,
            result.info["groups_truncated"],
            result.info["groups_padded"],
        ), None

    scenarios.append(
        Scenario(
            name="ballquery_bruteforce",
            stage="datastructuring",
            params={
                "num_points": n_bq,
                "num_centroids": m_bq,
                "neighbors": 16,
                "radius": round(bq_radius, 6),
            },
            run_vectorized=run_bq_vec,
            run_reference=lambda: (
                ref.ballquery_scalar(cloud_bq, cents_bq, 16, bq_radius), None
            ),
        )
    )

    # --- network: fused blocked backend vs the numpy reference ----------
    # The stacked PointNet++ forward over a ~100k-point batch, once per
    # compute backend.  Same frames, same deterministic weights, same
    # per-frame gathers; the delta is purely the dense-layer execution
    # strategy, so the speedup is what the fused backend's cache-blocked
    # epilogue buys over the numpy backend's whole-operand passes.  The
    # comparison asserts the fused backend's declared tolerance contract
    # (not bit-identity -- BN folding reassociates the epilogue).
    scenarios.append(_forward_backend_scenario(quick))

    # --- serving: batch-native dispatch vs frame-at-a-time -------------
    # Whole-pipeline scenarios: the same frames through Session.run_batch
    # in batch-native mode (FrameBatch stacks through both engines, one
    # stacked network forward) vs the frame-at-a-time dispatch.  Responses
    # are bit-identical (logits, sampled indices, gather rows, warm flags,
    # modelled latencies); the speedup is the per-frame Python/dispatch
    # overhead the batch path amortises.  The random down-sampler keeps the
    # scenario focused on dispatch (OIS's per-sample pick loop costs the
    # two paths identically and would dilute the comparison).
    for batch_frames in (8, 32):
        scenarios.append(
            _batch_dispatch_scenario(batch_frames, quick)
        )

    # --- serving: async micro-batch scheduler vs naive loop -------------
    # The same open-loop request stream through the full serving subsystem
    # (admission queue -> shape-grouped micro-batches -> warm-session
    # workers) vs a naive synchronous frame-at-a-time server.  Per-request
    # outputs are bit-identical (response_signature excludes the
    # scheduling-dependent warm/cached flags); the speedup axis is
    # concurrency -- worker overlap plus batch amortisation.
    scenarios.append(_serving_scenario(quick, rate_hz=2000.0, label="poisson"))
    scenarios.append(_serving_scenario(quick, rate_hz=0.0, label="burst"))

    # --- serving: the same Poisson stream on the fused backend -----------
    # (named explicitly, so the scenario does not follow the process
    # default).  Both the server's warm-session workers and the naive
    # sequential reference run fused sessions, so the bit-identity comparison
    # doubles as the fused backend's serving determinism gate: per-frame
    # and stacked dispatch must agree bit-for-bit under the fused backend
    # for the signatures to match across scheduling.
    scenarios.append(
        _serving_scenario(
            quick, rate_hz=2000.0, label="poisson_fused", backend="fused"
        )
    )

    # --- serving: process execution vs the thread pool -------------------
    # Same seeded arrival schedule, but the measured side runs a
    # multiprocess worker pool (shared-memory FrameBatch transport) while
    # the reference side is the in-process thread pool.  The value
    # comparison asserts bit-identical responses across execution modes,
    # so this scenario doubles as a cross-process determinism gate.
    scenarios.append(
        _serving_scenario(
            quick,
            rate_hz=2000.0,
            label="process_poisson",
            execution="process",
            reference="thread_pool",
        )
    )

    # --- serving: crash recovery under a seeded fault plan --------------
    # The same Poisson stream through two fresh process-pool servers: the
    # measured side runs under a FaultPlan that kills worker 0 mid-run
    # (its in-flight batches are retried with backoff on the respawned
    # worker), the reference side runs clean.  The value comparison
    # asserts recovered responses are bit-identical to the undisturbed
    # run; the "speedup" (expected < 1) is the price of one worker crash:
    # detection sweep + respawn + backed-off re-dispatch.
    scenarios.append(_serving_chaos_scenario(quick))

    # --- serving: shed admission under seeded mixed-shape burst traffic --
    # A seeded mixed small/large-cloud stream at a rate the pool cannot
    # sustain, behind shed admission with a tight waiting room.  Every
    # future must resolve either bit-identical to the sequential reference
    # or as a typed LoadShed -- never QueueFull, never silently.
    scenarios.append(_serving_mixed_traffic_scenario(quick))

    return scenarios


def _batch_dispatch_scenario(batch_frames: int, quick: bool) -> Scenario:
    from repro.core.config import (
        HgPCNConfig,
        InferenceEngineConfig,
        PreprocessingConfig,
    )
    from repro.session import Session

    # Small-frame serving regime: this is where batch dispatch pays off --
    # per-frame Python/dispatch overhead is a large fraction of the frame
    # cost and the stacked operands stay cache-resident (large frames are
    # matmul/memory-bound, where stacking buys nothing on one core; the
    # Session's ``batch_rows_budget`` keeps those at parity).
    raw_points = 400 if quick else 800
    num_samples = 64
    config = HgPCNConfig(
        preprocessing=PreprocessingConfig(num_samples=num_samples, seed=0),
        inference=InferenceEngineConfig(
            num_centroids=max(8, num_samples // 4),
            neighbors_per_centroid=16,
            seed=0,
        ),
    )
    frames = [
        sample_cad_shape(raw_points, shape="box", non_uniformity=0.3, seed=500 + i)
        for i in range(batch_frames)
    ]
    # Response caches off so every timing round recomputes; the sessions
    # are reused across rounds, so after the first round both sides run
    # fully warm and the measurement is steady-state serving cost.
    session_batched = Session(
        config=config, task="semantic_segmentation", sampler="random",
        response_cache_size=0,
    )
    session_sequential = Session(
        config=config, task="semantic_segmentation", sampler="random",
        response_cache_size=0,
    )

    def batch_comparable(batch) -> list:
        comparable = []
        for response in batch.responses:
            forward = response.result.inference.forward
            comparable.append(
                (
                    forward.logits,
                    response.result.preprocessing.sampling.indices,
                    tuple(
                        trace.gather.neighbor_indices
                        for trace in forward.sa_traces
                        if trace.gather is not None
                    ),
                    dataclasses.asdict(
                        response.result.inference.workload.data_structuring
                    ),
                    tuple(response.result.breakdown.as_dict().items()),
                    response.warm,
                    response.cached,
                )
            )
        return comparable

    return Scenario(
        name=f"batch_dispatch_{batch_frames}",
        stage="serving",
        params={
            "num_frames": batch_frames,
            "raw_points": raw_points,
            "num_samples": num_samples,
            "sampler": "random",
            "task": "semantic_segmentation",
        },
        run_vectorized=lambda: (
            batch_comparable(session_batched.run_batch(frames)),
            None,
        ),
        run_reference=lambda: (
            batch_comparable(
                session_sequential.run_batch(frames, batch_size=1)
            ),
            None,
        ),
    )


def _forward_backend_scenario(quick: bool) -> Scenario:
    from repro.core.framebatch import FrameBatch
    from repro.network.backends import get_backend
    from repro.network.pointnet2 import build_model_for_task

    task = "semantic_segmentation"
    num_frames = 8 if quick else 25
    points_per_frame = 1024 if quick else 4096
    clouds = [
        sample_cad_shape(
            points_per_frame, shape="box", non_uniformity=0.3, seed=1100 + i
        )
        for i in range(num_frames)
    ]
    batch = FrameBatch.from_clouds(clouds)
    # Layer weights are deterministic (name-keyed init), so the two models
    # are numerically the same network.  Both gather with VEG at the depth
    # the inference engine uses, so the backend-independent
    # data-structuring share of the forward is the engine's own.
    depth = suggest_depth(points_per_frame)
    model_numpy = build_model_for_task(
        task,
        input_size=points_per_frame,
        gatherer=VoxelExpandedGatherer(depth=depth),
        backend="numpy",
    )
    model_fused = build_model_for_task(
        task,
        input_size=points_per_frame,
        gatherer=VoxelExpandedGatherer(depth=depth),
        backend="fused",
    )
    contract = get_backend("fused").contract

    def logits_of(model) -> Callable[[], Tuple[Any, None]]:
        def run():
            return [r.logits for r in model.forward_batch(batch)], None

        return run

    def compare(vectorized: Any, reference: Any) -> bool:
        return len(vectorized) == len(reference) and all(
            contract.matches(actual, expected)
            for actual, expected in zip(vectorized, reference)
        )

    return Scenario(
        name="forward_fused_vs_numpy",
        stage="network",
        params={
            "task": task,
            "num_frames": num_frames,
            "points_per_frame": points_per_frame,
            "stacked_points": num_frames * points_per_frame,
            "gatherer": "veg",
            "measured_backend": "fused",
            "reference_backend": "numpy",
        },
        run_vectorized=logits_of(model_fused),
        run_reference=logits_of(model_numpy),
        compare=compare,
        contract=contract.describe(),
        # The promise this scenario exists to keep: the fused backend buys
        # >= 1.3x on the stacked forward (measured on a 2-vCPU VM with VEG
        # gathering: ~2.6x at the 100k-point full-mode batch, 1.6-2.3x
        # quick, so the floor has headroom for noisy CI runners in both
        # modes).
        min_speedup=1.3,
    )


def _serving_scenario(
    quick: bool,
    rate_hz: float,
    label: str,
    execution: str = "thread",
    reference: str = "naive",
    backend: Optional[str] = None,
) -> Scenario:
    from repro.network.backends import resolve_backend
    from repro.session import FrameRequest, Session
    from repro.serving import ExecutionConfig, FrameServer, ServeConfig
    from repro.serving.server import response_signature

    num_requests = 24 if quick else 64
    raw_points = 400 if quick else 800
    num_samples = 64
    # The serving soak's own config object (the one the serve CLI parses
    # into) supplies the session/engine/endpoint plumbing; only the
    # request stream is bench-specific.  No response cache: per-worker
    # caches would make cached flags depend on scheduling.  The backend
    # (when set) is shared by the server's workers and the sequential
    # reference, so the bit-identity comparison gates that backend's
    # dispatch invariance through the serving path.
    serve_config = ServeConfig(
        dataset="kitti",
        samples=num_samples,
        neighbors=16,
        seed=0,
        frames=num_requests,
        execution=ExecutionConfig(
            workers=2,
            execution=execution,
            max_batch=8,
            max_wait_ms=2.0,
            queue_capacity=num_requests,
            sampler="random",
            backend=backend,
        ),
    )
    requests = [
        FrameRequest(
            cloud=sample_cad_shape(
                raw_points, shape="box", non_uniformity=0.3, seed=700 + i
            ),
            frame_id=f"req{i:04d}",
        )
        for i in range(num_requests)
    ]
    # Seeded open-loop arrival schedule, identical for both sides.  At
    # 2000 Hz the arrival span is a small fraction of the sequential
    # service time, so the measurement is scheduling/overlap, not sleep.
    if rate_hz > 0:
        rng_arrivals = np.random.default_rng(42)
        arrivals = np.cumsum(
            rng_arrivals.exponential(1.0 / rate_hz, size=num_requests)
        )
    else:
        arrivals = np.zeros(num_requests)

    session_options = serve_config.session_options()

    def make_session() -> Session:
        return Session(**session_options)

    # Both sides are created lazily on first use (so scenarios filtered
    # out by --only never start threads that would add noise to other
    # measurements) and persist across timing rounds, so after round one
    # the measurement is steady-state (warm models everywhere).
    state: Dict[str, Any] = {}

    endpoint_options = serve_config.endpoint_options(num_requests, None)

    def get_endpoint():
        if "endpoint" not in state:
            state["endpoint"] = FrameServer(
                name=f"bench-{label}", **endpoint_options
            ).start()
        return state["endpoint"]

    def submit_on_schedule(endpoint):
        start = time.perf_counter()
        futures = []
        for request, arrival in zip(requests, arrivals):
            delay = start + arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(endpoint.submit(request))
        return [
            response_signature(future.result(timeout=120.0))
            for future in futures
        ], None

    def run_scheduled():
        return submit_on_schedule(get_endpoint())

    def run_naive():
        if "naive" not in state:
            state["naive"] = make_session()
        naive_session = state["naive"]
        start = time.perf_counter()
        signatures = []
        for request, arrival in zip(requests, arrivals):
            delay = start + arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            signatures.append(response_signature(naive_session.run(request)))
        return signatures, None

    def run_thread_pool_reference():
        # One in-process server with a thread worker pool, driven on the
        # identical seeded arrival schedule.  The harness's value
        # comparison then asserts that the process pool produces
        # bit-identical responses.
        if "thread_reference" not in state:
            state["thread_reference"] = FrameServer(
                name=f"bench-{label}-ref",
                **{**endpoint_options, "execution": "thread"},
            ).start()
        return submit_on_schedule(state["thread_reference"])

    return Scenario(
        name=f"serving_{label}",
        stage="serving",
        params={
            "num_requests": num_requests,
            "raw_points": raw_points,
            "num_samples": num_samples,
            "rate_hz": rate_hz,
            "workers": 2,
            "max_batch": 8,
            "max_wait_ms": 2.0,
            "sampler": "random",
            "execution": execution,
            "reference": reference,
            "backend": resolve_backend(backend).name,
        },
        run_vectorized=run_scheduled,
        run_reference=(
            run_thread_pool_reference
            if reference == "thread_pool"
            else run_naive
        ),
        teardown=_shutdown_servers(state),
    )


def _shutdown_servers(state: Dict[str, Any]) -> Callable[[], None]:
    """A serving scenario's teardown: shut down every server it cached."""

    def teardown() -> None:
        for name in ("endpoint", "thread_reference"):
            server = state.pop(name, None)
            if server is not None:
                server.shutdown()

    return teardown


def _serving_chaos_scenario(quick: bool) -> Scenario:
    from repro.session import FrameRequest
    from repro.serving import (
        ExecutionConfig,
        FaultPlan,
        FrameServer,
        RetryPolicy,
        ServeConfig,
    )
    from repro.serving.server import response_signature

    num_requests = 16 if quick else 32
    raw_points = 400 if quick else 800
    num_samples = 64
    rate_hz = 2000.0
    serve_config = ServeConfig(
        dataset="kitti",
        samples=num_samples,
        neighbors=16,
        seed=0,
        frames=num_requests,
        execution=ExecutionConfig(
            workers=2,
            execution="process",
            max_batch=4,
            max_wait_ms=2.0,
            queue_capacity=num_requests,
            sampler="random",
        ),
    )
    requests = [
        FrameRequest(
            cloud=sample_cad_shape(
                raw_points, shape="box", non_uniformity=0.3, seed=900 + i
            ),
            frame_id=f"chaos{i:04d}",
        )
        for i in range(num_requests)
    ]
    rng_arrivals = np.random.default_rng(42)
    arrivals = np.cumsum(
        rng_arrivals.exponential(1.0 / rate_hz, size=num_requests)
    )

    def run_with(faults: "FaultPlan") -> Tuple[Any, None]:
        # Fresh server per timing round on BOTH sides: a kill spec fires
        # once per worker generation, so a persistent endpoint would
        # crash only in round one and every later round would silently
        # measure a clean run.  Both sides therefore pay identical
        # startup (fork + warm sessions) and the delta is the crash.
        server = FrameServer(
            name="bench-chaos",
            retry_policy=RetryPolicy(max_attempts=3, seed=0),
            **serve_config.endpoint_options(num_requests, faults),
        )
        with server.start():
            start = time.perf_counter()
            futures = []
            for request, arrival in zip(requests, arrivals):
                delay = start + arrival - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(server.submit(request))
            signatures = [
                response_signature(future.result(timeout=120.0))
                for future in futures
            ]
        return signatures, None

    def run_chaos():
        return run_with(FaultPlan(seed=0).kill_worker(0, after_batches=1))

    def run_clean():
        return run_with(None)

    return Scenario(
        name="serving_chaos_poisson",
        stage="serving",
        params={
            "num_requests": num_requests,
            "raw_points": raw_points,
            "num_samples": num_samples,
            "rate_hz": rate_hz,
            "workers": 2,
            "max_batch": 4,
            "max_wait_ms": 2.0,
            "sampler": "random",
            "execution": "process",
            "fault": "kill worker 0 at its 2nd batch",
            "reference": "clean_run",
        },
        run_vectorized=run_chaos,
        run_reference=run_clean,
    )


def _serving_mixed_traffic_scenario(quick: bool) -> Scenario:
    from repro.session import Session
    from repro.serving import (
        ExecutionConfig,
        FrameServer,
        LoadShed,
        ServeConfig,
        TrafficConfig,
        signatures_equal,
    )
    from repro.serving.server import response_signature

    num_requests = 32 if quick else 80
    serve_config = ServeConfig(
        dataset="kitti",
        samples=64,
        neighbors=16,
        seed=0,
        frames=num_requests,
        traffic=TrafficConfig(
            model="mixed",
            # Overdriven on purpose: the arrival span is far shorter than
            # the sequential service time, so the waiting room fills and
            # the server must shed.
            rate_hz=2000.0,
            raw_points=400 if quick else 800,
        ),
        execution=ExecutionConfig(
            workers=2,
            max_batch=8,
            max_wait_ms=2.0,
            # Tight on purpose (well under the arrival burst): the run
            # must actually shed in both modes to prove typed shedding.
            queue_capacity=8,
            admission="shed",
            sampler="random",
        ),
    )
    items = serve_config.build_traffic_items()
    session_options = serve_config.session_options()
    state: Dict[str, Any] = {}

    def get_endpoint():
        if "endpoint" not in state:
            state["endpoint"] = FrameServer(
                name="bench-mixed",
                **serve_config.endpoint_options(len(items), None),
            ).start()
        return state["endpoint"]

    def run_shed():
        endpoint = get_endpoint()
        start = time.perf_counter()
        futures = []
        for item in items:
            delay = start + item.arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            # QueueFull must never surface under shed admission; a raise
            # here aborts the round and fails the scenario loudly.
            futures.append(endpoint.submit(item.request))
        outcomes: List[Any] = []
        for future in futures:
            try:
                outcomes.append(
                    response_signature(future.result(timeout=120.0))
                )
            except LoadShed:
                outcomes.append("load_shed")
        return outcomes, None

    def run_reference():
        if "naive" not in state:
            state["naive"] = Session(**session_options)
        naive = state["naive"]
        start = time.perf_counter()
        signatures = []
        for item in items:
            delay = start + item.arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            signatures.append(response_signature(naive.run(item.request)))
        return signatures, None

    def compare(vectorized: Any, reference: Any) -> bool:
        # Typed-or-bit-identical: every future resolved either with the
        # sequential reference's exact bytes or as a typed shed marker.
        if len(vectorized) != len(reference):
            return False
        served = 0
        for vec, ref in zip(vectorized, reference):
            if isinstance(vec, str):
                if vec != "load_shed":
                    return False
                continue
            if not signatures_equal(vec, ref):
                return False
            served += 1
        # An all-shed round would vacuously pass the loop above.
        return served > 0

    def collect_metrics():
        if "endpoint" not in state:
            return None
        return state["endpoint"].metrics.snapshot()

    return Scenario(
        name="serving_mixed_traffic",
        stage="serving",
        params={
            "num_requests": num_requests,
            "traffic": "mixed",
            "rate_hz": 2000.0,
            "admission": "shed",
            "queue_capacity": 8,
            "workers": 2,
            "max_batch": 8,
            "max_wait_ms": 2.0,
            "sampler": "random",
            "reference": "naive",
        },
        run_vectorized=run_shed,
        run_reference=run_reference,
        compare=compare,
        contract="typed_or_bit_identical",
        collect_metrics=collect_metrics,
        teardown=_shutdown_servers(state),
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
#: Scenarios faster than this are re-timed (best of N) so scheduler noise
#: on shared CI runners cannot flip the baseline check.
_RETIME_THRESHOLD_SECONDS = 1.0
_MAX_TIMING_ROUNDS = 5
#: Every measurement gets at least this many rounds: the first call after a
#: scalar reference's Python-object churn routinely pays allocator/page-fault
#: costs that vanish on the second round.
_MIN_TIMING_ROUNDS = 2


def _timed_pair(
    *runs: Callable[[], Tuple[Any, Optional[OpCounters]]]
) -> List[Tuple[float, Any, Optional[OpCounters]]]:
    """Best-of-N wall time of each run, their rounds alternating.

    Each run gets the rounds it would get alone (at least
    ``_MIN_TIMING_ROUNDS``; fast runs are repeated up to
    ``_MAX_TIMING_ROUNDS`` to suppress jitter), but round ``i`` of every
    run is taken before round ``i + 1`` of any, so a burst of host noise
    lands on both sides of a ratio instead of on one side's whole
    measurement.
    """
    results: List[Tuple[float, Any, Optional[OpCounters]]] = [
        (float("inf"), None, None) for _ in runs
    ]
    for rounds in range(_MAX_TIMING_ROUNDS):
        for slot, run in enumerate(runs):
            best = results[slot][0]
            if rounds >= _MIN_TIMING_ROUNDS and best >= _RETIME_THRESHOLD_SECONDS:
                continue
            start = time.perf_counter()
            value, counters = run()
            elapsed = time.perf_counter() - start
            results[slot] = (min(best, elapsed), value, counters)
    return results


def _run_scenario(scenario: Scenario) -> Dict[str, Any]:
    """Time, compare and report one scenario; its result record."""
    (
        (reference_seconds, reference_value, reference_counters),
        (vectorized_seconds, vectorized_value, vectorized_counters),
    ) = _timed_pair(scenario.run_reference, scenario.run_vectorized)

    identical = (scenario.compare or _equal)(
        vectorized_value, reference_value
    )
    counters_match = (
        _counters_dict(vectorized_counters)
        == _counters_dict(reference_counters)
    )
    speedup = reference_seconds / max(vectorized_seconds, 1e-12)
    result = {
        "name": scenario.name,
        "stage": scenario.stage,
        "params": scenario.params,
        "reference_seconds": round(reference_seconds, 6),
        "vectorized_seconds": round(vectorized_seconds, 6),
        "speedup": round(speedup, 2),
        "identical": bool(identical and counters_match),
        "contract": scenario.contract,
        "min_speedup": scenario.min_speedup,
        "counters": _counters_dict(vectorized_counters),
        "metrics": (
            scenario.collect_metrics()
            if scenario.collect_metrics is not None
            else None
        ),
    }
    status = "ok " if identical and counters_match else "MISMATCH"
    print(
        f"[{status}] {scenario.name:<22} {scenario.stage:<15}"
        f" ref {reference_seconds:8.3f}s  vec {vectorized_seconds:8.3f}s"
        f"  speedup {speedup:7.1f}x"
    )
    return result


def run_scenarios(
    scenarios: List[Scenario], quick: bool
) -> Dict[str, Any]:
    results: List[Dict[str, Any]] = []
    for scenario in scenarios:
        try:
            results.append(_run_scenario(scenario))
        finally:
            if scenario.teardown is not None:
                scenario.teardown()

    speedups = [r["speedup"] for r in results]
    summary = {
        "num_scenarios": len(results),
        "all_identical": all(r["identical"] for r in results),
        "min_speedup": round(min(speedups), 2) if speedups else None,
        "geomean_speedup": (
            round(float(np.exp(np.mean(np.log(speedups)))), 2)
            if speedups
            else None
        ),
    }
    return {
        "benchmark": "kernels",
        "mode": "quick" if quick else "full",
        "generated_unix": int(time.time()),
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "scenarios": results,
        "summary": summary,
    }


def _baseline_entry(raw: Any) -> Dict[str, Any]:
    """Normalise one baseline record to ``{speedup, budget, min_speedup}``.

    The checked-in baseline stores a per-scenario object; bare numbers
    (the pre-PR-9 format, or a hand-edited quick fix) are still accepted
    and get the default budget and no absolute floor.
    """
    if isinstance(raw, dict):
        return {
            "speedup": raw.get("speedup"),
            "budget": float(raw.get("budget", DEFAULT_REGRESSION_BUDGET)),
            "min_speedup": raw.get("min_speedup"),
        }
    return {
        "speedup": raw,
        "budget": DEFAULT_REGRESSION_BUDGET,
        "min_speedup": None,
    }


def _recorded_entries(
    baseline_path: Path, mode: str
) -> Dict[str, Dict[str, Any]]:
    if not baseline_path.exists():
        return {}
    raw: Dict[str, Any] = json.loads(baseline_path.read_text()).get(mode, {})
    return {name: _baseline_entry(value) for name, value in raw.items()}


def is_regressed(
    speedup: float, entry: Optional[Dict[str, Any]]
) -> bool:
    """The one regression predicate shared by the gate and the summary."""
    if entry is None or entry.get("speedup") is None:
        return False
    return speedup < entry["speedup"] / entry["budget"]


def _effective_floor(
    scenario: Dict[str, Any], entry: Optional[Dict[str, Any]]
) -> Optional[float]:
    """Strictest of the scenario's in-code floor and the baseline's."""
    floors = [scenario.get("min_speedup")]
    if entry is not None:
        floors.append(entry.get("min_speedup"))
    present = [float(f) for f in floors if f is not None]
    return max(present) if present else None


def check_baseline(report: Dict[str, Any], baseline_path: Path) -> List[str]:
    """Compare speedups against the recorded baseline; return failures.

    Three gates per scenario: the equivalence contract, the relative
    regression budget (measured < recorded speedup / budget fails), and
    the absolute ``min_speedup`` floor (strictest of the scenario's
    in-code promise and the baseline entry's recorded floor).
    """
    failures: List[str] = []
    if not baseline_path.exists():
        failures.append(f"baseline file missing: {baseline_path}")
        return failures
    recorded = _recorded_entries(baseline_path, report["mode"])
    for scenario in report["scenarios"]:
        if not scenario["identical"]:
            failures.append(
                f"{scenario['name']}: measured result violates its"
                f" {scenario.get('contract', 'bit_identical')} contract"
                " against the reference"
            )
        entry = recorded.get(scenario["name"])
        if is_regressed(scenario["speedup"], entry):
            failures.append(
                f"{scenario['name']}: speedup {scenario['speedup']}x fell"
                f" below {entry['speedup'] / entry['budget']:.2f}x (baseline"
                f" {entry['speedup']}x / budget {entry['budget']}x)"
            )
        floor = _effective_floor(scenario, entry)
        if floor is not None and scenario["speedup"] < floor:
            failures.append(
                f"{scenario['name']}: speedup {scenario['speedup']}x is"
                f" below the promised floor of {floor}x"
            )
    return failures


def markdown_speedup_table(report: Dict[str, Any], baseline_path: Path) -> str:
    """Render the per-scenario speedups as a GitHub-flavoured markdown table."""
    recorded = _recorded_entries(baseline_path, report["mode"])
    lines = [
        f"## Kernel benchmark speedups ({report['mode']} mode)",
        "",
        "| scenario | stage | reference [s] | vectorized [s] | speedup |"
        " baseline | status |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    for scenario in report["scenarios"]:
        entry = recorded.get(scenario["name"])
        floor = _effective_floor(scenario, entry)
        if not scenario["identical"]:
            status = "MISMATCH"
        elif is_regressed(scenario["speedup"], entry):
            status = "REGRESSED"
        elif floor is not None and scenario["speedup"] < floor:
            status = "BELOW FLOOR"
        else:
            status = "ok"
        baseline_cell = (
            f"{entry['speedup']}x"
            if entry is not None and entry.get("speedup") is not None
            else "-"
        )
        lines.append(
            f"| {scenario['name']} | {scenario['stage']} |"
            f" {scenario['reference_seconds']:.3f} |"
            f" {scenario['vectorized_seconds']:.3f} |"
            f" {scenario['speedup']:.2f}x | {baseline_cell} | {status} |"
        )
    summary = report["summary"]
    lines += [
        "",
        f"**{summary['num_scenarios']} scenarios** · all identical:"
        f" {summary['all_identical']} · min speedup"
        f" {summary['min_speedup']}x · geomean"
        f" {summary['geomean_speedup']}x",
    ]
    return "\n".join(lines)


def _git_sha() -> str:
    """Short commit hash of the tree the run measured, or "unknown"."""
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10.0,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def append_history(
    report: Dict[str, Any], path: Path = HISTORY_PATH
) -> Dict[str, Any]:
    """Append one commit-stamped record of ``report`` to the history log.

    The log is append-only JSONL: one compact record per harness run with
    the commit, mode, and per-scenario speedups -- enough to plot the perf
    trajectory across PRs without retaining full reports.
    """
    record = {
        "git_sha": _git_sha(),
        "generated_unix": report["generated_unix"],
        "mode": report["mode"],
        "numpy_version": report["numpy_version"],
        "all_identical": report["summary"]["all_identical"],
        "geomean_speedup": report["summary"]["geomean_speedup"],
        "speedups": {
            scenario["name"]: scenario["speedup"]
            for scenario in report["scenarios"]
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def publish_step_summary(markdown: str) -> None:
    """Append ``markdown`` to $GITHUB_STEP_SUMMARY, or stdout when unset."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
        print("appended speedup table to $GITHUB_STEP_SUMMARY")
    else:
        print("\n" + markdown)


def run_exhibits(needle: str) -> int:
    """Legacy mode: print every reproduced table/figure of the paper."""
    from repro.analysis.figures import all_reports, match_reports

    reports = all_reports()
    matched = match_reports(needle, reports)
    if not matched:
        print(f"no exhibit matches {needle!r}; available:")
        for report in reports:
            print(f"  - {report.exhibit}: {report.title}")
        return 1
    for report in matched:
        print(report.formatted())
        print()
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized scenarios (seconds instead of minutes)",
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="run only scenarios whose name contains one of these substrings",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="fail if any scenario breaks its per-scenario regression"
             " budget or min_speedup floor from benchmarks/baselines/",
    )
    parser.add_argument(
        "--exhibits", nargs="?", const="", default=None, metavar="NEEDLE",
        help="print the paper's tables/figures instead (optionally filtered)",
    )
    args = parser.parse_args(argv[1:])

    if args.exhibits is not None:
        return run_exhibits(args.exhibits)

    scenarios = build_scenarios(quick=args.quick)
    if args.only:
        scenarios = [
            s for s in scenarios
            if any(needle in s.name for needle in args.only)
        ]
        if not scenarios:
            print(f"no scenario matches {args.only!r}")
            return 1

    report = run_scenarios(scenarios, quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    append_history(report)
    print(f"appended run record to {HISTORY_PATH}")
    summary = report["summary"]
    print(
        f"\n{summary['num_scenarios']} scenarios | all identical:"
        f" {summary['all_identical']} | min speedup"
        f" {summary['min_speedup']}x | geomean {summary['geomean_speedup']}x"
    )
    print(f"wrote {args.output}")

    if args.check_baseline:
        # Publish the per-run speedup table before any gate fires, so perf
        # deltas are readable per-run without downloading artifacts.
        publish_step_summary(markdown_speedup_table(report, BASELINE_PATH))
    if not summary["all_identical"]:
        print("FAIL: at least one vectorized kernel diverged from its"
              " scalar reference")
        return 1
    if args.check_baseline:
        failures = check_baseline(report, BASELINE_PATH)
        if failures:
            print("\nbaseline check FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"baseline check passed ({BASELINE_PATH.name})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
