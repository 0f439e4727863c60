"""Shared-memory transport: ship tensors between processes without pickling.

The process pool moves two kinds of payloads between the parent and its
worker processes: request micro-batches (the stacked ``(B, N, 3)`` /
``(B, N, F)`` tensors of a :class:`~repro.core.framebatch.FrameBatch`) and
response payloads (:class:`~repro.session.FrameResponse` trees whose leaves
are numpy arrays: logits, sampled indices, gather rows, octree arrays).
Pickling those arrays through a ``multiprocessing.Queue`` would copy every
byte twice (serialize + deserialize); this module lifts the array *data*
out of the pickle stream instead:

* :func:`encode_payload` pickles the object tree with a custom pickler
  whose ``persistent_id`` intercepts every numpy array, leaving a
  placeholder in the **skeleton** and appending the raw bytes to a
  shared-memory segment.  The message that crosses the queue is tiny: the
  skeleton, a **manifest** of ``(dtype, shape, order, offset, nbytes)``
  specs, and the segment name.  An array referenced twice is lifted once
  and decodes aliased, like pickle's own memo.  Objects the receiver
  already holds (``known=``: the pool passes each request's cloud) are
  not shipped: the skeleton carries a ``("repro-known", i)``
  back-reference and the receiver patches in its own object.
* :func:`decode_payload` validates the manifest against the segment,
  rebuilds each array byte-exactly (dtype, shape, and C/F contiguity all
  preserved), and unpickles the skeleton with the arrays patched back in.
* :func:`encode_frame_batch` / :func:`decode_frame_batch` are the typed
  wrappers for a bare :class:`FrameBatch`: the message carries a
  :class:`FrameBatchHeader` and decoding **rejects** any manifest whose
  tensor shapes disagree with it (defence against torn or misrouted
  messages).
* :func:`encode_requests` / :func:`decode_requests` are the request wire
  format of the process pool: frames grouped by raw shape, each group
  shipped as one stacked FrameBatch tensor pair, with per-frame ids and
  timestamps riding in the skeleton.

When :mod:`multiprocessing.shared_memory` is unavailable (or the platform
cannot map segments), every encoder falls back to an **inline** buffer
carried inside the message itself -- the bytes then travel through the
queue pickle, slower but byte-for-byte equivalent (the manifest/skeleton
machinery is identical, only the buffer's home changes).

Segment lifetime follows a strict creator-unlinks discipline (see
:class:`SharedMemoryArena`): the creating process tracks and unlinks its
segments; receivers only attach, copy, and close.  The pool layers an
ack protocol on top so a segment is never unlinked before its receiver
has copied the bytes out.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import os
import pickle
import threading
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.framebatch import FrameBatch
from repro.geometry.pointcloud import PointCloud
from repro.session import FrameRequest

try:  # gate, don't crash: some platforms build python without shm
    from multiprocessing import shared_memory as _shared_memory_module
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _shared_memory_module = None

#: Byte alignment of every array in a segment (cache-line sized).
_ALIGNMENT = 64


class TransportError(RuntimeError):
    """A message failed validation or a segment could not be mapped."""


def shared_memory_available() -> bool:
    """Whether the shared-memory fast path can be used on this platform."""
    return _shared_memory_module is not None


def _attach(name: str):
    """Attach to an existing segment as a non-owner.

    CPython (gh-82300) registers a ``SharedMemory`` with the resource
    tracker even on attach, but the tracker cache is a *set* shared by the
    whole fork tree, so the attach registration collapses into the
    creator's and the creator's eventual ``unlink`` clears it -- no manual
    unregister needed (an extra one would double-remove and make the
    tracker process log KeyErrors).
    """
    if _shared_memory_module is None:
        raise TransportError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    try:
        segment = _shared_memory_module.SharedMemory(name=name)
    except FileNotFoundError as exc:
        raise TransportError(f"shared-memory segment {name!r} is gone") from exc
    return segment


class SharedMemoryArena:
    """Tracks the shared-memory segments a process *owns*.

    The arena is the creator-side bookkeeping: :meth:`allocate` creates a
    named segment and remembers it; :meth:`release` closes **and unlinks**
    it; :meth:`release_all` is the shutdown/crash sweep.  Receivers never
    go through an arena -- they attach, copy, and close
    (:func:`decode_payload` does this internally).

    ``release`` also accepts names the arena never allocated: it then
    attempts an attach-and-unlink, which is the crash-cleanup path (the
    parent reclaiming segments a dead worker created under predictable
    names).
    """

    def __init__(self, prefix: str = "repro-shm"):
        self.prefix = prefix
        self._owned: Dict[str, Any] = {}
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def allocate(self, nbytes: int, name: Optional[str] = None):
        """Create (and own) a segment of at least ``nbytes`` bytes."""
        if _shared_memory_module is None:
            raise TransportError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        if name is None:
            name = f"{self.prefix}-{os.getpid()}-{next(self._counter)}"
        segment = _shared_memory_module.SharedMemory(
            name=name, create=True, size=max(1, int(nbytes))
        )
        with self._lock:
            self._owned[segment.name] = segment
        return segment

    def release(self, name: str) -> bool:
        """Close and unlink ``name``; True when a segment was reclaimed."""
        with self._lock:
            segment = self._owned.pop(name, None)
        if segment is None:
            # Crash cleanup of a foreign segment under a predictable name.
            if _shared_memory_module is None:
                return False
            try:
                segment = _shared_memory_module.SharedMemory(name=name)
            except Exception:  # gone already, or unmappable
                return False
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # already unlinked elsewhere
            return False
        return True

    def release_all(self) -> int:
        """Reclaim every owned segment (shutdown sweep)."""
        with self._lock:
            names = list(self._owned)
        return sum(1 for name in names if self.release(name))

    @property
    def owned_names(self) -> List[str]:
        with self._lock:
            return list(self._owned)

    def __enter__(self) -> "SharedMemoryArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release_all()


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ArraySpec:
    """Manifest entry: where one array's bytes live and how to rebuild it."""

    index: int
    dtype: str
    shape: Tuple[int, ...]
    #: "C" or "F": the contiguity to restore on decode.
    order: str
    offset: int
    nbytes: int


@dataclasses.dataclass(frozen=True)
class FrameBatchHeader:
    """Declared shape of a FrameBatch message, validated against its manifest."""

    num_frames: int
    num_points: int
    num_feature_channels: int


@dataclasses.dataclass(frozen=True)
class TransportMessage:
    """One payload crossing a process boundary.

    ``segment`` names the shared-memory block holding the array bytes;
    ``inline`` carries them directly when shared memory is unavailable
    (exactly one of the two is set when the manifest is non-empty).
    """

    skeleton: bytes
    manifest: Tuple[ArraySpec, ...]
    segment: Optional[str] = None
    inline: Optional[bytes] = None
    total_bytes: int = 0
    header: Optional[FrameBatchHeader] = None
    #: How many ``known`` objects the sender held, and which of them the
    #: skeleton back-references; decoding needs a ``known`` of that length.
    known_count: int = 0
    known_refs: Tuple[int, ...] = ()

    @property
    def via_shared_memory(self) -> bool:
        return self.segment is not None


class _ArrayLiftingPickler(pickle.Pickler):
    """Pickler that swaps numpy arrays for manifest placeholders.

    ``persistent_id`` runs before pickle's memo, so both tables are keyed
    by ``id()``: a repeated array reuses its manifest entry and a
    ``known`` object becomes a back-reference into the receiver's list.
    """

    def __init__(self, file, known: Sequence[Any]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: List[np.ndarray] = []
        self._array_index: Dict[int, int] = {}
        self._known_index = {id(obj): i for i, obj in enumerate(known)}
        self.known_refs: Set[int] = set()

    def persistent_id(self, obj: Any):
        known = self._known_index.get(id(obj))
        if known is not None:
            self.known_refs.add(known)
            return ("repro-known", known)
        # Exact ndarray only: subclasses and object-dtype arrays keep their
        # own (possibly custom) pickle semantics.
        if type(obj) is np.ndarray and not obj.dtype.hasobject:
            index = self._array_index.get(id(obj))
            if index is None:
                index = self._array_index[id(obj)] = len(self.arrays)
                self.arrays.append(obj)
            return ("repro-ndarray", index)
        return None


class _ArrayRestoringUnpickler(pickle.Unpickler):
    """Unpickler that patches decoded arrays and known objects back in."""

    def __init__(self, file, arrays: Sequence[np.ndarray], known: Sequence[Any]):
        super().__init__(file)
        self._tables = {"repro-ndarray": arrays, "repro-known": known}

    def persistent_load(self, pid: Any) -> Any:
        try:
            tag, index = pid
            return self._tables[tag][index]
        except (TypeError, ValueError, LookupError):
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def _write_arrays(buffer, manifest: Sequence[ArraySpec], arrays) -> None:
    """Copy each array straight into its slot of ``buffer`` (one copy)."""
    for spec, array in zip(manifest, arrays):
        target = np.frombuffer(
            buffer, dtype=array.dtype, count=array.size, offset=spec.offset
        )
        if spec.order == "F":
            # An F-contiguous array's memory equals the C-order bytes of
            # its transpose; recording "F" lets decode restore the layout.
            target.reshape(array.shape[::-1])[...] = array.T
        else:
            target.reshape(array.shape)[...] = array


def encode_payload(
    obj: Any,
    arena: Optional[SharedMemoryArena] = None,
    segment_name: Optional[str] = None,
    force_inline: bool = False,
    known: Sequence[Any] = (),
) -> TransportMessage:
    """Encode ``obj`` with its array data lifted out of the pickle stream.

    Uses a shared-memory segment (allocated from ``arena``, or a throwaway
    arena when none is given) unless shared memory is unavailable or
    ``force_inline`` is set, in which case the bytes ride inline.  Objects
    listed in ``known`` are replaced by back-references; the receiver must
    decode with its own list of the same length.
    """
    buffer = io.BytesIO()
    pickler = _ArrayLiftingPickler(buffer, known)
    pickler.dump(obj)
    arrays = pickler.arrays

    manifest: List[ArraySpec] = []
    offset = 0
    for index, array in enumerate(arrays):
        fortran = array.flags.f_contiguous and not array.flags.c_contiguous
        offset = (offset + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)
        manifest.append(
            ArraySpec(
                index=index,
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                order="F" if fortran else "C",
                offset=offset,
                nbytes=array.nbytes,
            )
        )
        offset += array.nbytes
    message = TransportMessage(
        skeleton=buffer.getvalue(),
        manifest=tuple(manifest),
        total_bytes=offset,
        known_count=len(known),
        known_refs=tuple(sorted(pickler.known_refs)),
    )

    if shared_memory_available() and not force_inline and offset > 0:
        own_arena = arena if arena is not None else SharedMemoryArena()
        segment = own_arena.allocate(offset, name=segment_name)
        try:
            _write_arrays(segment.buf, manifest, arrays)
        except Exception:
            own_arena.release(segment.name)
            raise
        return dataclasses.replace(message, segment=segment.name)
    inline = bytearray(offset)
    _write_arrays(inline, manifest, arrays)
    return dataclasses.replace(message, inline=bytes(inline))


def _read_array(buffer, spec: ArraySpec) -> np.ndarray:
    """Rebuild one array (byte-exact, owning its memory) from ``buffer``."""
    dtype = np.dtype(spec.dtype)
    count = int(np.prod(spec.shape, dtype=np.int64)) if spec.shape else 1
    expected = count * dtype.itemsize
    if spec.nbytes != expected:
        raise TransportError(
            f"manifest entry {spec.index}: {spec.nbytes} bytes recorded but "
            f"shape {spec.shape} x {dtype} needs {expected}"
        )
    end = spec.offset + spec.nbytes
    if spec.offset < 0 or end > len(buffer):
        raise TransportError(
            f"manifest entry {spec.index}: [{spec.offset}, {end}) outside "
            f"the {len(buffer)}-byte buffer"
        )
    flat = np.frombuffer(buffer, dtype=dtype, count=count, offset=spec.offset)
    if spec.order == "F":
        return flat.reshape(tuple(reversed(spec.shape))).T.copy(order="F")
    return flat.reshape(spec.shape).copy()


def decode_payload(message: TransportMessage, known: Sequence[Any] = ()) -> Any:
    """Decode a message; arrays come back byte-exact and independently owned.

    ``known`` is the receiver's copy of the list the sender encoded with;
    its length and every back-reference index are checked before any byte
    is read.  Attaches to the segment only for the duration of the copy;
    the segment itself is left for its creator to unlink (see the ack
    protocol in :mod:`repro.serving.cluster.pool`).
    """
    if message.known_count != len(known) or any(
        not 0 <= ref < len(known) for ref in message.known_refs
    ):
        raise TransportError(
            f"message back-references {list(message.known_refs)} of "
            f"{message.known_count} known objects, receiver holds {len(known)}"
        )
    if message.segment is not None:
        segment = _attach(message.segment)
        try:
            arrays = [_read_array(segment.buf, s) for s in message.manifest]
        finally:
            segment.close()
    else:
        inline = message.inline if message.inline is not None else b""
        arrays = [_read_array(inline, s) for s in message.manifest]
    return _ArrayRestoringUnpickler(
        io.BytesIO(message.skeleton), arrays, known
    ).load()


# ----------------------------------------------------------------------
# FrameBatch wire format
# ----------------------------------------------------------------------
def encode_frame_batch(
    batch: FrameBatch,
    arena: Optional[SharedMemoryArena] = None,
    segment_name: Optional[str] = None,
    force_inline: bool = False,
) -> TransportMessage:
    """Ship one FrameBatch: stacked tensors in the segment, ids in the skeleton."""
    payload = {
        "points": batch.points,
        "features": batch.features,
        "frame_ids": [cloud.frame_id for cloud in batch.clouds],
        "timestamps": [cloud.timestamp for cloud in batch.clouds],
    }
    message = encode_payload(
        payload, arena=arena, segment_name=segment_name, force_inline=force_inline
    )
    header = FrameBatchHeader(
        num_frames=batch.num_frames,
        num_points=batch.num_points,
        num_feature_channels=batch.num_feature_channels,
    )
    return dataclasses.replace(message, header=header)


def validate_frame_batch_manifest(message: TransportMessage) -> None:
    """Reject a FrameBatch message whose manifest disagrees with its header.

    Runs *before* any segment bytes are touched: a torn, tampered, or
    misrouted message fails here with a :class:`TransportError` instead of
    materialising garbage tensors.
    """
    header = message.header
    if header is None:
        raise TransportError("message carries no FrameBatchHeader")
    expected_arrays = 1 + (1 if header.num_feature_channels else 0)
    if len(message.manifest) != expected_arrays:
        raise TransportError(
            f"FrameBatch manifest has {len(message.manifest)} tensors, "
            f"header declares {expected_arrays}"
        )
    points_shape = (header.num_frames, header.num_points, 3)
    if tuple(message.manifest[0].shape) != points_shape:
        raise TransportError(
            f"points tensor shape {tuple(message.manifest[0].shape)} does "
            f"not match header {points_shape}"
        )
    if header.num_feature_channels:
        features_shape = (
            header.num_frames,
            header.num_points,
            header.num_feature_channels,
        )
        if tuple(message.manifest[1].shape) != features_shape:
            raise TransportError(
                f"features tensor shape {tuple(message.manifest[1].shape)} "
                f"does not match header {features_shape}"
            )


def decode_frame_batch(message: TransportMessage) -> FrameBatch:
    """Validate and rebuild a FrameBatch; member clouds view the stacks."""
    validate_frame_batch_manifest(message)
    payload = decode_payload(message)
    points = payload["points"]
    features = payload["features"]
    clouds = [
        PointCloud(
            points=points[b],
            features=None if features is None else features[b],
            frame_id=payload["frame_ids"][b],
            timestamp=payload["timestamps"][b],
        )
        for b in range(points.shape[0])
    ]
    return FrameBatch(clouds=clouds, points=points, features=features)


# ----------------------------------------------------------------------
# Micro-batch request wire format (what the pool actually dispatches)
# ----------------------------------------------------------------------
def encode_requests(
    requests: Sequence[FrameRequest],
    arena: Optional[SharedMemoryArena] = None,
    segment_name: Optional[str] = None,
    force_inline: bool = False,
) -> TransportMessage:
    """Encode a micro-batch of requests as stacked per-raw-shape tensors.

    Frames of one micro-batch share a *warm-shape* key but may differ in
    raw point count, so they are grouped by raw shape first (the same
    grouping :meth:`Session.run_batch` applies) and each group travels as
    one stacked ``(B, N, 3)``/``(B, N, F)`` tensor pair -- two manifest
    entries per group instead of two per frame.
    """
    requests = list(requests)
    groups = []
    grouped: Dict[Tuple[int, int], List[int]] = {}
    for i, request in enumerate(requests):
        cloud = request.cloud
        key = (cloud.num_points, cloud.num_feature_channels)
        grouped.setdefault(key, []).append(i)
    for indices in grouped.values():
        batch = FrameBatch.from_clouds([requests[i].cloud for i in indices])
        groups.append(
            {
                "indices": list(indices),
                "points": batch.points,
                "features": batch.features,
                "frame_ids": [requests[i].frame_id for i in indices],
                "timestamps": [requests[i].timestamp for i in indices],
            }
        )
    payload = {"num_requests": len(requests), "groups": groups}
    return encode_payload(
        payload, arena=arena, segment_name=segment_name, force_inline=force_inline
    )


def decode_requests(message: TransportMessage) -> List[FrameRequest]:
    """Rebuild the request list; clouds are views of the decoded stacks."""
    payload = decode_payload(message)
    requests: List[Optional[FrameRequest]] = [None] * payload["num_requests"]
    for group in payload["groups"]:
        points = group["points"]
        features = group["features"]
        for slot, i in enumerate(group["indices"]):
            if requests[i] is not None:
                raise TransportError(f"request slot {i} assigned twice")
            cloud = PointCloud(
                points=points[slot],
                features=None if features is None else features[slot],
            )
            requests[i] = FrameRequest(
                cloud=cloud,
                frame_id=group["frame_ids"][slot],
                timestamp=group["timestamps"][slot],
            )
    missing = [i for i, request in enumerate(requests) if request is None]
    if missing:
        raise TransportError(f"request slots {missing} missing from message")
    return requests  # type: ignore[return-value]
