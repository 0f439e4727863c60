"""Equivalence suite for the pluggable compute backends.

Every registered backend is held to the two-tier contract documented in
``repro/network/backends/base.py``:

* **numpy equivalence** -- outputs match the numpy backend's to the
  backend's *declared* :class:`EquivalenceContract` (bit-identity for
  numpy itself, a stated allclose tolerance for the float32 fused
  backend).  The tests assert through the contract object, so the
  asserted tolerance can never drift from the declared one.  Labels are
  held to equality on CAD frames and to a 99.5 % agreement floor per
  point on LiDAR frames.
* **dispatch invariance** -- stacked and per-frame application agree
  bit-for-bit *within* each backend, including the single-row
  shapes where BLAS takes its matrix-vector path.  This is the property the serving bit-identity
  gates rest on.

The fused backend's streamed set abstraction (``apply_grouped``) is held
to the same two tiers against the materialised base implementation, on
both sides of its first-layer hoisting rule and far from the origin; its
max-pool before the last epilogue is held to bit-identity with
epilogue-then-max; and its workspaces are isolated between threads and
across pickling.
"""

import sys
import threading

import numpy as np
import pytest

from repro import registry
from repro.core.framebatch import FrameBatch
from repro.datasets.synthetic import lidar_scene, sample_cad_shape
from repro.network.backends import (
    default_backend_name,
    get_backend,
    resolve_backend,
)
from repro.network.backends.base import (
    EquivalenceContract,
    fold_stages,
    folded_stages,
)
from repro.network.layers import Dense, SharedMLP
from repro.network.pointnet2 import build_model_for_task

BACKEND_NAMES = registry.available("backend")


def _per_frame_reference(layer, flat: np.ndarray, num_frames: int) -> np.ndarray:
    """Ground truth: the unstacked layer applied frame by frame."""
    rows = flat.shape[0] // num_frames
    return np.concatenate(
        [layer(flat[b * rows : (b + 1) * rows]) for b in range(num_frames)]
    )


def _layers():
    return [
        ("shared_mlp", SharedMLP([3, 16, 32], name="t.mlp")),
        ("shared_mlp_wide", SharedMLP([19, 64, 64, 128], name="t.wide")),
        ("bare_dense", Dense(16, 8, name="t.dense")),
        (
            "mlp_no_final_relu",
            SharedMLP([8, 16, 4], name="t.nofinal", final_activation=False),
        ),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "numpy" in BACKEND_NAMES
        assert "fused" in BACKEND_NAMES

    def test_resolve_accepts_name_instance_and_none(self):
        fused = get_backend("fused")
        assert resolve_backend("fused") is fused
        assert resolve_backend(fused) is fused
        assert resolve_backend(None).name == default_backend_name()

    def test_unknown_backend_is_self_diagnosing(self):
        with pytest.raises(registry.UnknownComponentError):
            resolve_backend("definitely-not-a-backend")

    def test_env_override_sets_process_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "fused"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_describe_reports_contract(self):
        for name in BACKEND_NAMES:
            info = get_backend(name).describe()
            assert info["name"] == name
            assert info["contract"] == get_backend(name).contract.describe()


class TestDeclaredContract:
    """Each backend's outputs vs numpy, asserted via its own contract."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("label,layer", _layers(), ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("num_frames", [1, 4])
    def test_layer_apply_matches_numpy(self, backend_name, label, layer, num_frames, rng):
        backend = get_backend(backend_name)
        rows = 37  # odd on purpose: exercises ragged final blocks
        flat = rng.standard_normal((num_frames * rows, layer.in_features))
        expected = _per_frame_reference(layer, flat, num_frames)
        actual = backend.apply(layer, flat, num_frames)
        assert backend.contract.matches(actual, expected), (
            f"{backend_name} violated its {backend.contract.describe()} "
            f"contract on {label}"
        )

    def test_numpy_contract_is_bit_identity(self):
        assert get_backend("numpy").contract.kind == "bit_identical"

    def test_fused_contract_is_documented_tolerance(self):
        contract = get_backend("fused").contract
        assert contract.kind == "allclose"
        assert 0 < contract.atol <= 1e-5
        assert 0 < contract.rtol <= 1e-4


class TestDispatchInvariance:
    """Stacked vs per-frame application is bit-identical per backend."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "rows,num_frames",
        [
            (64, 4),
            (1, 5),  # single-row frames: the BLAS matrix-vector edge
            (2, 3),
            (513, 2),  # straddles the fused backend's block boundary math
        ],
    )
    def test_stacked_equals_per_frame(self, backend_name, rows, num_frames, rng):
        backend = get_backend(backend_name)
        layer = SharedMLP([3, 16, 32], name="t.inv")
        flat = rng.standard_normal((num_frames * rows, 3))
        stacked = backend.apply(layer, flat, num_frames)
        per_frame = np.concatenate(
            [
                backend.apply(
                    layer, flat[b * rows : (b + 1) * rows], 1
                )
                for b in range(num_frames)
            ]
        )
        np.testing.assert_array_equal(stacked, per_frame)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("label,layer", _layers(), ids=lambda v: v if isinstance(v, str) else "")
    def test_every_layer_kind(self, backend_name, label, layer, rng):
        backend = get_backend(backend_name)
        flat = rng.standard_normal((3 * 37, layer.in_features))
        stacked = backend.apply(layer, flat, 3)
        per_frame = np.concatenate(
            [backend.apply(layer, frame, 1) for frame in np.split(flat, 3)]
        )
        np.testing.assert_array_equal(stacked, per_frame)


class TestApplyOperand:
    """Every backend splits a stacked operand the same way."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("rows,num_frames", [(10, 3), (8, 0)])
    def test_uneven_split_rejected(self, backend_name, rows, num_frames, rng):
        layer = SharedMLP([3, 8], name="t.split")
        with pytest.raises(ValueError, match="cannot split"):
            get_backend(backend_name).apply(
                layer, rng.standard_normal((rows, 3)), num_frames
            )

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_empty_operand(self, backend_name):
        layer = SharedMLP([3, 8, 16], name="t.empty_any")
        out = get_backend(backend_name).apply(layer, np.empty((0, 3)), 2)
        assert out.shape == (0, 16)


class TestFusedBlocking:
    def test_non_divisible_rows_rejected(self, rng):
        backend = get_backend("fused")
        layer = SharedMLP([3, 8], name="t.div")
        with pytest.raises(ValueError):
            backend.apply(layer, rng.standard_normal((10, 3)), 3)

    def test_empty_operand(self):
        backend = get_backend("fused")
        layer = SharedMLP([3, 8, 16], name="t.empty")
        out = backend.apply(layer, np.empty((0, 3)), 1)
        assert out.shape == (0, 16)

    def test_bn_fold_matches_unfused_layer(self, rng):
        """The scale/shift fold reproduces Dense+BN+ReLU within tolerance."""
        layer = SharedMLP([5, 16, 8], name="t.fold")
        # Non-trivial BN statistics so the fold actually has work to do.
        for norm in layer.norms:
            norm.running_mean = rng.standard_normal(norm.num_features)
            norm.running_var = rng.uniform(0.5, 2.0, norm.num_features)
            norm.gamma = rng.uniform(0.5, 1.5, norm.num_features)
            norm.beta = rng.standard_normal(norm.num_features)
        for dense in layer.layers:
            dense.bias = rng.standard_normal(dense.out_features)
        flat = rng.standard_normal((200, 5))
        backend = get_backend("fused")
        assert backend.contract.matches(
            backend.apply(layer, flat, 1), layer(flat)
        )

    def test_stage_fold_shapes(self):
        stages = fold_stages(SharedMLP([3, 16, 32], name="t.shapes"))
        assert [(s.in_features, s.out_features) for s in stages] == [
            (3, 16),
            (16, 32),
        ]
        assert all(s.relu for s in stages)
        bare = fold_stages(Dense(4, 2, name="t.bare"))
        assert bare[0].scale is None and not bare[0].relu


class TestModelEquivalence:
    """Whole-model forwards across backends on seeded FrameBatches."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "task", ["classification", "part_segmentation", "semantic_segmentation"]
    )
    def test_forward_batch_matches_numpy(self, backend_name, task):
        backend = get_backend(backend_name)
        clouds = [
            sample_cad_shape(96, shape="box", non_uniformity=0.3, seed=60 + i)
            for i in range(3)
        ]
        batch = FrameBatch.from_clouds(clouds)
        reference = build_model_for_task(task, input_size=96, backend="numpy")
        candidate = build_model_for_task(task, input_size=96, backend=backend_name)
        expected = reference.forward_batch(batch)
        actual = candidate.forward_batch(batch)
        for got, want in zip(actual, expected):
            assert backend.contract.matches(got.logits, want.logits)

    @pytest.mark.parametrize("task", ["classification", "semantic_segmentation"])
    def test_full_size_fused_forward_matches_numpy(self, task):
        """At ``input_size=1024`` every fused SA but ``sa1`` hoists its
        first layer; the logits stay within the contract and no label
        moves."""
        fused = get_backend("fused")
        clouds = [sample_cad_shape(2048, seed=70 + i) for i in range(2)]
        batch = FrameBatch.from_clouds(clouds)
        expected = build_model_for_task(
            task, input_size=1024, backend="numpy"
        ).forward_batch(batch)
        actual = build_model_for_task(
            task, input_size=1024, backend="fused"
        ).forward_batch(batch)
        for got, want in zip(actual, expected):
            assert fused.contract.matches(got.logits, want.logits)
            np.testing.assert_array_equal(
                got.logits.argmax(axis=-1), want.logits.argmax(axis=-1)
            )

    def test_lidar_segmentation_labels_agree_with_numpy(self):
        """On LiDAR sweeps (80 m across) through the whole pipeline the
        fused logits stay within the contract and at least 99.5 % of the
        per-point labels agree with numpy.  Per-point equality would be
        brittle: over a frame pool the smallest top-2 logit gap can be
        smaller than the largest logit difference."""
        from repro import HgPCNConfig
        from repro.session import Session

        fused = get_backend("fused")
        frames = [lidar_scene(20_000, seed=90 + i) for i in range(2)]
        logits = {}
        for name in ("numpy", "fused"):
            session = Session(
                config=HgPCNConfig.for_task(1024),
                task="semantic_segmentation",
                backend=name,
                response_cache_size=0,
            )
            logits[name] = [
                response.result.inference.forward.logits
                for response in session.run_batch(frames).responses
            ]
        for got, want in zip(logits["fused"], logits["numpy"]):
            assert got.shape == want.shape == (1024, 13)
            assert fused.contract.matches(got, want)
            assert np.mean(got.argmax(axis=-1) == want.argmax(axis=-1)) >= 0.995

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_sequential_forward_matches_batched(self, backend_name):
        """Dispatch invariance end to end: a stack of N vs N stacks of one.

        The classification head runs per frame on single-row operands in
        both paths, so this covers the single-row fallback through a real
        model, not just the layer-level probe.
        """
        clouds = [
            sample_cad_shape(96, shape="box", non_uniformity=0.3, seed=80 + i)
            for i in range(3)
        ]
        model = build_model_for_task(
            "classification", input_size=96, backend=backend_name
        )
        batched = model.forward_batch(FrameBatch.from_clouds(clouds))
        for cloud, from_batch in zip(clouds, batched):
            alone = model.forward_batch(FrameBatch.from_clouds([cloud]))[0]
            np.testing.assert_array_equal(alone.logits, from_batch.logits)


class TestSessionIntegration:
    def test_default_budget_comes_from_backend(self):
        from repro.session import DEFAULT_BATCH_ROWS_BUDGET, Session

        # One budget for every backend: frames stack only while the stacked
        # SA operand still fits a block, whoever executes it.
        assert Session().batch_rows_budget == DEFAULT_BATCH_ROWS_BUDGET
        for name in BACKEND_NAMES:
            assert (
                Session(backend=name).batch_rows_budget
                == DEFAULT_BATCH_ROWS_BUDGET
            )

    def test_session_reports_backend(self):
        from repro.session import Session

        session = Session(backend="fused")
        assert session.backend == "fused"
        assert session.stats()["backend"] == "fused"

    def test_unknown_backend_fails_fast(self):
        from repro.session import Session

        with pytest.raises(registry.UnknownComponentError):
            Session(backend="not-a-backend")

    def test_warm_key_includes_backend(self):
        from repro.session import Session

        session = Session(backend="fused", sampler="random")
        cloud = sample_cad_shape(128, shape="box", seed=5)
        session.run(cloud)
        keys = session.inference_engine.warm_keys()
        assert keys and all(key[3] == "fused" for key in keys)


def _grouped_operands(rng, frames, points, groups, neighbors, channels):
    """Random ``apply_grouped`` operands; ``groups=None`` = one global group."""
    xyz = rng.standard_normal((frames, points, 3))
    features = (
        rng.standard_normal((frames, points, channels)) if channels else None
    )
    if groups is None:
        rows = np.broadcast_to(np.arange(points), (frames, 1, points))
        centers = xyz.mean(axis=1, keepdims=True)
    else:
        rows = rng.integers(0, points, (frames, groups, neighbors))
        centers = np.take_along_axis(xyz, rows[:, :, :1], axis=1)
    return xyz, features, centers, rows


def _assert_streamed_sa_contract(mlp, operands):
    """Fused vs numpy under the contract, and stacked == per-frame exactly."""
    fused = get_backend("fused")
    frames, groups = operands[3].shape[:2]
    expected = get_backend("numpy").apply_grouped(mlp, *operands)
    actual = fused.apply_grouped(mlp, *operands)
    assert actual.shape == (frames, groups, mlp.out_features)
    assert fused.contract.matches(actual, expected)
    # Dispatch invariance: frame by frame is the very same block calls.
    for b in range(frames):
        alone = fused.apply_grouped(
            mlp,
            *(None if op is None else op[b : b + 1] for op in operands),
        )
        np.testing.assert_array_equal(alone[0], actual[b])


# The 1024-wide last layer pins the block at 128 float32 rows (1 MiB over
# input + output of 1024 x 4 bytes), so these small shapes cross block
# boundaries the way full frames do, each with a ragged last block.
_SA_SHAPES = pytest.mark.parametrize(
    "frames,points,groups,neighbors,channels",
    [
        (1, 90, 31, 5, 4),  # 25 groups per block: 31 leaves a tail of 6
        (1, 50, 140, 1, 2),  # K = 1: 128 groups per block, a tail of 12
        (1, 60, 17, 8, 0),  # coordinates only: 16 per block, a tail of 1
        (1, 40, 1, 7, 3),  # one centroid
        (1, 200, None, 200, 6),  # global group of 200 rows: 128, then 72
        (3, 90, 31, 5, 4),  # B > 1
        (2, 200, None, 200, 0),
    ],
)


class TestStreamedSetAbstraction:
    """``fused.apply_grouped`` vs the materialise -> apply -> max reference."""

    @_SA_SHAPES
    def test_matches_materialised_reference(
        self, rng, frames, points, groups, neighbors, channels
    ):
        fused = get_backend("fused")
        mlp = SharedMLP([3 + channels, 16, 1024], name="t.stream")
        stages = fold_stages(mlp)
        assert fused._block_rows(stages) == 128
        assert not fused._hoists(stages[0], points, 1, points)  # widening
        operands = _grouped_operands(
            rng, frames, points, groups, neighbors, channels
        )
        _assert_streamed_sa_contract(mlp, operands)

    @_SA_SHAPES
    def test_hoisted_first_layer_matches_materialised_reference(
        self, rng, frames, points, groups, neighbors, channels
    ):
        fused = get_backend("fused")
        mlp = SharedMLP([3 + channels, 3 + channels, 1024], name="t.hoist")
        stages = fold_stages(mlp)
        assert fused._block_rows(stages) == 128
        operands = _grouped_operands(
            rng, frames, points, groups, neighbors, channels
        )
        num_groups, group_size = operands[3].shape[1:]
        # Every shape but the lone centroid (7 rows < 40 points) hoists.
        hoists = fused._hoists(stages[0], points, num_groups, group_size)
        assert hoists == (groups != 1)
        _assert_streamed_sa_contract(mlp, operands)

    @pytest.mark.parametrize("backend_name", ["numpy", "fused"])
    @pytest.mark.parametrize("hoisted", [False, True])
    @_SA_SHAPES
    def test_neighbour_order_within_a_row_is_invisible(
        self, rng, backend_name, hoisted, frames, points, groups, neighbors, channels
    ):
        """Permuting each neighbour row leaves the output bit-identical: the
        group max ignores the order, which is why a gatherer's order inside
        a row (VEG's inner-then-tail order, say) cannot reach the logits."""
        width = 3 + channels if hoisted else 16
        mlp = SharedMLP([3 + channels, width, 1024], name="t.order")
        xyz, features, centers, rows = _grouped_operands(
            rng, frames, points, groups, neighbors, channels
        )
        shuffled = np.take_along_axis(
            rows, rng.random(rows.shape).argsort(axis=-1), axis=-1
        )
        assert not np.array_equal(shuffled, rows) or rows.shape[-1] == 1
        backend = get_backend(backend_name)
        np.testing.assert_array_equal(
            backend.apply_grouped(mlp, xyz, features, centers, shuffled),
            backend.apply_grouped(mlp, xyz, features, centers, rows),
        )

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    @pytest.mark.parametrize(
        "channels", [[7, 7, 1024], [7, 4], [7, 16, 1024]]
    )
    def test_hoisted_far_from_the_origin(self, rng, channels, offset):
        """Both paths take the frame about a frame-local origin in float64
        before rounding it to float32, so a far-off cloud does not cost the
        contract its digits (rounding raw coordinates first misses it by
        1e-2 or more at 1e6 and 0.5 or more at 1e9).  The widening MLP
        keeps the gather."""
        mlp = SharedMLP(channels, name="t.far")
        xyz, features, centers, rows = _grouped_operands(rng, 2, 90, 31, 5, 4)
        operands = (xyz + offset, features, centers + offset, rows)
        hoists = get_backend("fused")._hoists(fold_stages(mlp)[0], 90, 31, 5)
        assert hoists == (channels[1] <= channels[0])
        _assert_streamed_sa_contract(mlp, operands)

    @pytest.mark.parametrize("final_activation", [False, True])
    def test_pool_before_epilogue_is_exact(self, rng, final_activation):
        """Max-pooling the raw last stage, then its epilogue, gives the bits
        of epilogue-then-max over the same float32 stage outputs, for
        batch-norm scales of either sign and zero."""
        fused = get_backend("fused")
        mlp = SharedMLP(
            [3 + 4, 16, 8], name="t.pool", final_activation=final_activation
        )
        norm = mlp.norms[-1]
        norm.gamma = np.array([1.5, -0.5, 0.0, 2.0, -3.0, 0.0, 0.25, -1.0])
        norm.beta = rng.standard_normal(8)
        norm.running_mean = rng.standard_normal(8)
        stages = folded_stages(mlp)
        scale = stages[-1].scale
        assert (scale < 0).any() and (scale == 0).any() and (scale > 0).any()
        xyz, features, centers, rows = _grouped_operands(rng, 2, 90, 31, 5, 4)
        assert not fused._hoists(stages[0], 90, 31, 5)
        assert 31 * 5 <= fused._block_rows(stages)  # one block per frame
        actual = fused.apply_grouped(mlp, xyz, features, centers, rows)
        for b in range(2):
            # The operand the backend builds: about the first centre in
            # float64, rounded once, then centred in float32.
            local = np.concatenate(
                [xyz[b] - centers[b, 0], features[b]], axis=-1
            ).astype(np.float32)
            local_centres = (centers[b] - centers[b, 0]).astype(np.float32)
            grouped = local[rows[b]]
            grouped[:, :, :3] -= local_centres[:, None, :]
            outputs = fused._run_stages(stages, grouped.reshape(31 * 5, -1))
            np.testing.assert_array_equal(
                actual[b], outputs.reshape(31, 5, -1).max(axis=1)
            )

    def test_numpy_path_is_the_historical_materialised_one(self, rng):
        mlp = SharedMLP([3 + 4, 16, 32], name="t.hist")
        xyz, features, centers, rows = _grouped_operands(rng, 1, 90, 31, 5, 4)
        grouped = np.concatenate(
            [xyz[0][rows[0]] - centers[0][:, None, :], features[0][rows[0]]],
            axis=-1,
        )
        expected = mlp(grouped.reshape(31 * 5, -1)).reshape(31, 5, -1).max(axis=1)
        np.testing.assert_array_equal(
            get_backend("numpy").apply_grouped(mlp, xyz, features, centers, rows)[0],
            expected,
        )

    def test_refolds_when_a_parameter_is_replaced(self, rng):
        fused = get_backend("fused")
        mlp = SharedMLP([3, 8], name="t.refold")
        flat = rng.standard_normal((10, 3))
        before = fused.apply(mlp, flat)
        mlp.layers[0].bias = np.ones(8)
        assert fused.contract.matches(fused.apply(mlp, flat), mlp(flat))
        assert not np.array_equal(fused.apply(mlp, flat), before)

    def test_run_batch_batched_equals_sequential_under_the_default(self, monkeypatch):
        from repro import HgPCNConfig
        from repro.serving.server import response_signature, signatures_equal
        from repro.session import Session

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        frames = [sample_cad_shape(1024, seed=40 + i) for i in range(5)]

        def session():
            return Session(
                config=HgPCNConfig.for_task(256, neighbors=16),
                task="classification",
                response_cache_size=0,
            )

        assert session().backend == "fused"
        assert session().batch_rows_budget // 256 == 2  # frames do get stacked
        batched = session().run_batch(frames).responses
        sequential = session().run_batch(frames, batch_size=1).responses
        for got, want in zip(batched, sequential):
            assert signatures_equal(response_signature(got), response_signature(want))

    def test_threads_sharing_the_singleton_do_not_share_workspaces(self):
        fused = get_backend("fused")
        mlp = SharedMLP([3 + 4, 32, 64], name="t.threads")
        cases = [
            _grouped_operands(np.random.default_rng(seed), 2, 300, 150, 8, 4)
            for seed in range(4)
        ]
        expected = [fused.apply_grouped(mlp, *case) for case in cases]
        results = [[] for _ in cases]

        def worker(slot):
            for _ in range(25):
                results[slot].append(fused.apply_grouped(mlp, *cases[slot]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, outputs in enumerate(results):
            assert len(outputs) == 25
            for output in outputs:
                np.testing.assert_array_equal(output, expected[slot])
