"""Tests for the shared-memory transport layer.

Covers byte-exact roundtrips of FrameBatch tensors through a shared-memory
segment (dtype, shape, and C/F contiguity all preserved), manifest
validation rejecting mismatched shapes before any bytes are touched,
arena segment ownership, the micro-batch request wire format,
equivalence of the inline fallback path when
``multiprocessing.shared_memory`` is unavailable, single lifting of a
repeated array, and validated ``known=`` back-references.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.framebatch import FrameBatch
from repro.datasets.synthetic import sample_cad_shape
from repro.serving.cluster import transport
from repro.serving.cluster.transport import (
    ArraySpec,
    FrameBatchHeader,
    SharedMemoryArena,
    TransportError,
    decode_frame_batch,
    decode_payload,
    decode_requests,
    encode_frame_batch,
    encode_payload,
    encode_requests,
    shared_memory_available,
)
from repro.session import FrameRequest


def make_batch(num_frames: int = 3, points: int = 50, features: int = 0) -> FrameBatch:
    rng = np.random.default_rng(7)
    clouds = []
    for i in range(num_frames):
        from repro.geometry.pointcloud import PointCloud

        clouds.append(
            PointCloud(
                points=rng.normal(size=(points, 3)),
                features=(
                    rng.normal(size=(points, features)) if features else None
                ),
                frame_id=f"f{i}",
                timestamp=float(i) * 0.1,
            )
        )
    return FrameBatch.from_clouds(clouds)


@pytest.fixture
def arena():
    with SharedMemoryArena(prefix="repro-test") as arena:
        yield arena


# ----------------------------------------------------------------------
# Payload roundtrips
# ----------------------------------------------------------------------
class TestPayloadRoundtrip:
    @pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on platform"
    )
    def test_arrays_roundtrip_byte_exact_via_shared_memory(self, arena):
        rng = np.random.default_rng(0)
        payload = {
            "f64": rng.normal(size=(17, 3)),
            "f32": rng.normal(size=(5, 4)).astype(np.float32),
            "i32": rng.integers(0, 100, size=(9,)).astype(np.int32),
            "bools": rng.random(size=(4, 4)) > 0.5,
            "scalar_like": np.array(3.5),
            "meta": {"name": "x", "values": [1, 2, 3]},
        }
        message = encode_payload(payload, arena=arena)
        assert message.via_shared_memory
        decoded = decode_payload(message)
        for key in ("f64", "f32", "i32", "bools", "scalar_like"):
            assert decoded[key].dtype == payload[key].dtype
            assert decoded[key].shape == payload[key].shape
            assert decoded[key].tobytes() == payload[key].tobytes()
        assert decoded["meta"] == payload["meta"]

    @pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on platform"
    )
    def test_fortran_contiguity_preserved(self, arena):
        c_order = np.arange(12.0).reshape(3, 4)
        f_order = np.asfortranarray(c_order)
        message = encode_payload({"c": c_order, "f": f_order}, arena=arena)
        decoded = decode_payload(message)
        assert decoded["c"].flags.c_contiguous
        assert decoded["f"].flags.f_contiguous
        np.testing.assert_array_equal(decoded["c"], c_order)
        np.testing.assert_array_equal(decoded["f"], f_order)

    @pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on platform"
    )
    def test_decoded_arrays_own_their_memory(self, arena):
        source = np.arange(8.0)
        message = encode_payload({"a": source}, arena=arena)
        decoded = decode_payload(message)
        # The segment can be released immediately; the decoded array must
        # not be a view into it.
        assert arena.release(message.segment)
        np.testing.assert_array_equal(decoded["a"], source)
        decoded["a"][0] = -1.0  # still writable after the segment is gone

    def test_inline_path_equivalent_when_forced(self):
        rng = np.random.default_rng(1)
        payload = {"a": rng.normal(size=(11, 2)), "n": 5}
        message = encode_payload(payload, force_inline=True)
        assert not message.via_shared_memory
        assert message.inline is not None
        decoded = decode_payload(message)
        assert decoded["a"].tobytes() == payload["a"].tobytes()
        assert decoded["n"] == 5

    def test_inline_fallback_when_shared_memory_missing(self, monkeypatch):
        monkeypatch.setattr(transport, "_shared_memory_module", None)
        assert not shared_memory_available()
        payload = {"a": np.arange(6.0).reshape(2, 3)}
        message = encode_payload(payload)
        assert not message.via_shared_memory
        decoded = decode_payload(message)
        np.testing.assert_array_equal(decoded["a"], payload["a"])
        # Allocation is cleanly refused rather than crashing obscurely.
        with pytest.raises(TransportError):
            SharedMemoryArena().allocate(64)

    def test_array_free_payload_needs_no_segment(self):
        message = encode_payload({"just": "data"})
        assert message.segment is None and message.total_bytes == 0
        assert decode_payload(message) == {"just": "data"}


    @pytest.mark.parametrize("force_inline", [False, True])
    def test_repeated_array_is_lifted_once_and_stays_aliased(self, force_inline):
        # Regression: persistent_id runs before pickle's memo, so one array
        # referenced twice used to ship twice and decode as two copies.
        a = np.arange(10.0)
        with SharedMemoryArena(prefix="repro-test") as arena:
            message = encode_payload(
                {"x": a, "y": a, "z": a.copy()},
                arena=arena,
                force_inline=force_inline,
            )
            decoded = decode_payload(message)
        assert len(message.manifest) == 2
        assert decoded["x"] is decoded["y"]
        assert decoded["z"] is not decoded["x"]
        np.testing.assert_array_equal(decoded["z"], a)

    @pytest.mark.parametrize("force_inline", [False, True])
    def test_sources_are_written_in_place_byte_identically(self, force_inline):
        # Strided, transposed, F-ordered, 0-d and empty sources all land in
        # the buffer exactly as their contiguous bytes would.
        base = np.arange(120, dtype=np.int32).reshape(10, 12)
        sources = [
            base[::2, 1::3],
            np.asfortranarray(base.astype(np.float64)),
            base.T,
            np.array(2.5),
            np.empty((0, 3)),
            np.arange(5, dtype=np.uint8),
        ]
        message = encode_payload(sources, force_inline=True)
        for spec, source in zip(message.manifest, sources):
            order = "F" if spec.order == "F" else "C"
            stored = message.inline[spec.offset : spec.offset + spec.nbytes]
            assert stored == source.tobytes(order=order)
            assert spec.offset % 64 == 0
            assert spec.nbytes == source.nbytes
        with SharedMemoryArena(prefix="repro-test") as arena:
            decoded = decode_payload(
                encode_payload(sources, arena=arena, force_inline=force_inline)
            )
        for got, source in zip(decoded, sources):
            assert got.dtype == source.dtype
            np.testing.assert_array_equal(got, source)
        assert decoded[1].flags.f_contiguous and decoded[2].flags.f_contiguous


# ----------------------------------------------------------------------
# Back-references to objects the receiver already holds
# ----------------------------------------------------------------------
class TestKnownBackReferences:
    def _payload(self):
        batch = make_batch(num_frames=2)
        clouds = list(batch.clouds)
        payload = {
            "responses": [
                {"request": cloud, "octree": {"cloud": cloud}, "n": i}
                for i, cloud in enumerate(clouds)
            ]
        }
        return payload, clouds

    @pytest.mark.parametrize("force_inline", [False, True])
    def test_known_objects_are_not_shipped_and_come_back_identical(
        self, force_inline
    ):
        payload, clouds = self._payload()
        with SharedMemoryArena(prefix="repro-test") as arena:
            plain = encode_payload(payload, arena=arena, force_inline=force_inline)
            message = encode_payload(
                payload, arena=arena, force_inline=force_inline, known=clouds
            )
            # The receiver patches in *its own* objects, whatever they are.
            mine = [object(), object()]
            decoded = decode_payload(message, known=mine)
        assert len(plain.manifest) == 2 and len(message.manifest) == 0
        assert message.known_count == 2 and message.known_refs == (0, 1)
        for i, response in enumerate(decoded["responses"]):
            assert response["request"] is mine[i]
            assert response["octree"]["cloud"] is mine[i]
            assert response["n"] == i

    def test_unreferenced_known_objects_are_declared_but_not_referenced(self):
        message = encode_payload({"n": 1}, known=[object(), object()])
        assert message.known_count == 2 and message.known_refs == ()
        assert decode_payload(message, known=["a", "b"]) == {"n": 1}

    def test_wrong_known_length_rejected(self):
        payload, clouds = self._payload()
        message = encode_payload(payload, known=clouds)
        for known in ((), clouds[:1], clouds + clouds):
            with pytest.raises(TransportError, match="known objects"):
                decode_payload(message, known=known)
        with pytest.raises(TransportError, match="known objects"):
            decode_payload(encode_payload({"n": 1}), known=clouds)

    def test_out_of_range_back_reference_rejected_before_reading(self):
        payload, clouds = self._payload()
        message = encode_payload(
            {"a": np.arange(4.0), **payload}, known=clouds, force_inline=True
        )
        # The segment is gone: validation must fail first, not the attach.
        for refs in ((0, 2), (-1,)):
            torn = dataclasses.replace(
                message, known_refs=refs, inline=None, segment="repro-test-gone"
            )
            with pytest.raises(TransportError, match="back-references"):
                decode_payload(torn, known=clouds)


# ----------------------------------------------------------------------
# Manifest validation
# ----------------------------------------------------------------------
class TestManifestValidation:
    def test_mismatched_points_shape_rejected(self):
        batch = make_batch(num_frames=2, points=40)
        message = encode_frame_batch(batch, force_inline=True)
        lying = dataclasses.replace(
            message,
            header=FrameBatchHeader(
                num_frames=2, num_points=41, num_feature_channels=0
            ),
        )
        with pytest.raises(TransportError, match="does not match header"):
            decode_frame_batch(lying)

    def test_mismatched_feature_shape_rejected(self):
        batch = make_batch(num_frames=2, points=30, features=4)
        message = encode_frame_batch(batch, force_inline=True)
        lying = dataclasses.replace(
            message,
            header=FrameBatchHeader(
                num_frames=2, num_points=30, num_feature_channels=5
            ),
        )
        with pytest.raises(TransportError, match="does not match header"):
            decode_frame_batch(lying)

    def test_wrong_tensor_count_rejected(self):
        batch = make_batch(num_frames=2, points=30)
        message = encode_frame_batch(batch, force_inline=True)
        lying = dataclasses.replace(
            message,
            header=FrameBatchHeader(
                num_frames=2, num_points=30, num_feature_channels=4
            ),
        )
        with pytest.raises(TransportError, match="manifest has"):
            decode_frame_batch(lying)

    def test_missing_header_rejected(self):
        batch = make_batch(num_frames=1, points=10)
        message = encode_frame_batch(batch, force_inline=True)
        with pytest.raises(TransportError, match="no FrameBatchHeader"):
            decode_frame_batch(dataclasses.replace(message, header=None))

    def test_out_of_bounds_manifest_rejected(self):
        message = encode_payload({"a": np.arange(4.0)}, force_inline=True)
        bad_spec = dataclasses.replace(
            message.manifest[0], offset=message.total_bytes
        )
        with pytest.raises(TransportError, match="outside"):
            decode_payload(dataclasses.replace(message, manifest=(bad_spec,)))

    def test_inconsistent_nbytes_rejected(self):
        message = encode_payload({"a": np.arange(4.0)}, force_inline=True)
        bad_spec = dataclasses.replace(message.manifest[0], shape=(5,))
        with pytest.raises(TransportError, match="needs"):
            decode_payload(dataclasses.replace(message, manifest=(bad_spec,)))


# ----------------------------------------------------------------------
# FrameBatch + request wire formats
# ----------------------------------------------------------------------
class TestFrameBatchWire:
    @pytest.mark.parametrize("features", [0, 3])
    def test_roundtrip(self, arena, features):
        batch = make_batch(num_frames=3, points=25, features=features)
        message = encode_frame_batch(batch, arena=arena)
        restored = decode_frame_batch(message)
        assert restored.num_frames == batch.num_frames
        assert restored.points.tobytes() == batch.points.tobytes()
        if features:
            assert restored.features.tobytes() == batch.features.tobytes()
        else:
            assert restored.features is None
        for original, copy in zip(batch.clouds, restored.clouds):
            assert copy.frame_id == original.frame_id
            assert copy.timestamp == original.timestamp

    def test_header_travels_with_message(self):
        batch = make_batch(num_frames=2, points=15, features=2)
        message = encode_frame_batch(batch, force_inline=True)
        assert message.header == FrameBatchHeader(2, 15, 2)


class TestRequestWire:
    @pytest.mark.parametrize("force_inline", [False, True])
    def test_mixed_raw_shapes_roundtrip(self, arena, force_inline):
        if not force_inline and not shared_memory_available():
            pytest.skip("no shared memory on platform")
        requests = [
            FrameRequest(
                cloud=sample_cad_shape(points, shape="box", seed=i),
                frame_id=f"req{i}",
                timestamp=0.5 * i,
            )
            for i, points in enumerate([40, 55, 40, 55, 40])
        ]
        message = encode_requests(
            requests, arena=arena, force_inline=force_inline
        )
        # One stacked tensor per distinct raw shape, not per frame.
        assert len(message.manifest) == 2
        restored = decode_requests(message)
        assert len(restored) == len(requests)
        for original, copy in zip(requests, restored):
            assert copy.frame_id == original.frame_id
            assert copy.timestamp == original.timestamp
            assert (
                copy.cloud.points.tobytes() == original.cloud.points.tobytes()
            )

    def test_missing_slot_rejected(self):
        requests = [
            FrameRequest(
                cloud=sample_cad_shape(30, shape="box", seed=i),
                frame_id=f"req{i}",
            )
            for i in range(2)
        ]
        message = encode_requests(requests, force_inline=True)
        payload = decode_payload(message)
        payload["num_requests"] = 3
        lying = encode_payload(payload, force_inline=True)
        with pytest.raises(TransportError, match="missing"):
            decode_requests(lying)


# ----------------------------------------------------------------------
# Arena ownership
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on platform"
)
class TestArena:
    def test_allocate_release_cycle(self):
        arena = SharedMemoryArena(prefix="repro-test-cycle")
        segment = arena.allocate(128)
        assert segment.name in arena.owned_names
        assert arena.release(segment.name)
        assert segment.name not in arena.owned_names
        # Releasing again: the segment is gone.
        assert not arena.release(segment.name)

    def test_release_all_sweeps_everything(self):
        arena = SharedMemoryArena(prefix="repro-test-sweep")
        names = [arena.allocate(64).name for _ in range(3)]
        assert arena.release_all() == 3
        assert arena.owned_names == []
        for name in names:
            assert not arena.release(name)

    def test_release_of_unknown_name_is_false(self):
        arena = SharedMemoryArena()
        assert not arena.release("repro-test-definitely-not-there")

    def test_foreign_release_reclaims_by_name(self):
        creator = SharedMemoryArena(prefix="repro-test-foreign")
        segment = creator.allocate(64)
        # A different arena (the crash-cleanup path) can reclaim it.
        assert SharedMemoryArena().release(segment.name)
        assert not creator.release(segment.name)
