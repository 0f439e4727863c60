"""Pluggable compute backends behind the FrameBatch seam.

Importing this package registers the built-in backends under the
``"backend"`` registry kind (the :mod:`repro.registry` idiom every other
component family follows):

* ``fused`` -- the default: float32 compute behind float64 boundaries,
  cache-sized blocks with folded bias/BN/ReLU epilogues and streamed set
  abstraction (gather -> MLP -> running max, with a non-widening first
  layer tabulated per point ahead of the gather and the last epilogue run
  on the pooled rows), contract = documented ``allclose`` tolerance,
  dispatch-invariant because no block spans frames.
* ``numpy`` -- the float64 whole-operand path every contract is stated against,
  contract = bit-identity, dispatch-invariant because it applies a stacked
  operand one frame at a time.

Call sites resolve backends through :func:`resolve_backend`, which accepts
a registry name, an existing instance, or ``None`` for the process default
(the ``REPRO_BACKEND`` environment variable when set, else ``fused`` --
the env hook is how CI runs the whole tier-1 suite under the numpy
reference backend without touching any call site).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

from repro import registry
from repro.network.backends.base import (
    ComputeBackend,
    DenseStage,
    EquivalenceContract,
    fold_stages,
)
from repro.network.backends.fused import FusedBlockedBackend
from repro.network.backends.numpy_backend import NumpyBackend

registry.register("backend", "numpy", NumpyBackend)
registry.register("backend", "fused", FusedBlockedBackend)

#: One shared instance per name, so repeated resolution (every Session,
#: every warm model) reuses it and its per-thread workspaces.
_INSTANCES: Dict[str, ComputeBackend] = {}


def default_backend_name() -> str:
    """The process-default backend name (``REPRO_BACKEND`` env, else fused)."""
    return os.environ.get("REPRO_BACKEND") or "fused"


def get_backend(name: str) -> ComputeBackend:
    """The shared instance of the backend registered under ``name``."""
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = registry.create("backend", name)
        _INSTANCES[name] = instance
    return instance


def resolve_backend(
    backend: Union[None, str, ComputeBackend] = None,
) -> ComputeBackend:
    """Resolve a backend argument to an instance.

    ``None`` means the process default, a string is a registry lookup
    (raising the self-diagnosing :class:`~repro.registry.UnknownComponentError`
    for typos), and an instance passes through.
    """
    if backend is None:
        return get_backend(default_backend_name())
    if isinstance(backend, ComputeBackend):
        return backend
    return get_backend(str(backend))


__all__ = [
    "ComputeBackend",
    "DenseStage",
    "EquivalenceContract",
    "FusedBlockedBackend",
    "NumpyBackend",
    "default_backend_name",
    "fold_stages",
    "get_backend",
    "resolve_backend",
]
