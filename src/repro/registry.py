"""String-addressable component registry (the microkernel seam).

Every pluggable service of the reproduction -- down-samplers, neighbor
gatherers, inference accelerators, datasets, and the two engines -- registers
a factory here under a short string name.  Call sites then compose the
pipeline declaratively::

    from repro import registry

    sampler = registry.create("sampler", "ois", seed=0)
    registry.available("accelerator")
    # ['cpu', 'gpu', 'hgpcn', 'mesorasi', 'pointacc']

The registry keeps the core (:mod:`repro.session`, :mod:`repro.cli`, the
analysis sweeps) free of hardcoded import lists: new components become
reachable everywhere the moment they register, which is the architectural
seam new samplers, accelerators and compute backends plug into.

Built-in implementations register when their subpackage is imported.  In
practice ``import repro`` eagerly imports every registering subpackage; the
lazy ``_load_builtins`` path is a safety net that keeps lookups complete if
the package ``__init__`` ever trims those eager imports, and keeps this
module itself free of top-level ``repro`` imports (so subpackages can import
it mid-initialisation without cycles).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Tuple

Factory = Callable[..., Any]

#: The component kinds the registry knows about.
KINDS: Tuple[str, ...] = (
    "sampler",
    "gatherer",
    "accelerator",
    "dataset",
    "engine",
    "backend",
    "traffic",
)

#: Modules whose import registers the built-in implementations of each kind.
_BUILTIN_MODULES: Dict[str, Tuple[str, ...]] = {
    "sampler": ("repro.sampling",),
    "gatherer": ("repro.datastructuring",),
    "accelerator": ("repro.accelerators",),
    "dataset": ("repro.datasets",),
    "engine": ("repro.core",),
    "backend": ("repro.network.backends",),
    "traffic": ("repro.serving.traffic",),
}

_factories: Dict[str, Dict[str, Factory]] = {kind: {} for kind in KINDS}
_loaded_kinds: set = set()


class UnknownComponentError(KeyError):
    """Raised for a ``(kind, name)`` lookup that matches nothing.

    The message lists the registered choices so a typo on the command line or
    in a config file is self-diagnosing.
    """

    def __init__(self, kind: str, name: str, choices: List[str]):
        self.kind = kind
        self.name = name
        self.choices = choices
        super().__init__(kind, name)

    def __str__(self) -> str:
        listing = ", ".join(repr(c) for c in self.choices) or "<none registered>"
        return (
            f"unknown {self.kind} {self.name!r}; "
            f"available {self.kind}s: {listing}"
        )


class DuplicateComponentError(ValueError):
    """Raised when a name is registered twice without ``overwrite=True``."""


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise UnknownComponentError("kind", kind, list(KINDS))


def _load_builtins(kind: str) -> None:
    """Import the subpackages that register the built-ins of ``kind``."""
    if kind in _loaded_kinds:
        return
    # Mark first: the imported modules call register() re-entrantly.  Undo on
    # failure so a broken import surfaces on every lookup instead of leaving
    # the kind silently empty for the life of the process.
    _loaded_kinds.add(kind)
    try:
        for module in _BUILTIN_MODULES.get(kind, ()):
            importlib.import_module(module)
    except BaseException:
        _loaded_kinds.discard(kind)
        raise


def register(
    kind: str,
    name: str,
    factory: Optional[Factory] = None,
    *,
    overwrite: bool = False,
) -> Factory:
    """Register ``factory`` (a class or callable) as ``(kind, name)``.

    Usable directly -- ``register("sampler", "fps", FarthestPointSampler)`` --
    or as a decorator::

        @register("gatherer", "my-gatherer")
        class MyGatherer(Gatherer):
            ...
    """
    _check_kind(kind)
    if factory is None:
        def decorator(cls: Factory) -> Factory:
            register(kind, name, cls, overwrite=overwrite)
            return cls

        return decorator
    if not callable(factory):
        raise TypeError(f"factory for {kind} {name!r} must be callable")
    if not overwrite and name in _factories[kind]:
        raise DuplicateComponentError(
            f"{kind} {name!r} is already registered; pass overwrite=True to replace"
        )
    _factories[kind][name] = factory
    return factory


def unregister(kind: str, name: str) -> None:
    """Remove ``(kind, name)``; silently ignores missing names."""
    _check_kind(kind)
    _factories[kind].pop(name, None)


def get_factory(kind: str, name: str) -> Factory:
    """Return the registered factory, raising :class:`UnknownComponentError`."""
    _check_kind(kind)
    _load_builtins(kind)
    try:
        return _factories[kind][name]
    except KeyError:
        raise UnknownComponentError(kind, name, available(kind)) from None


def create(kind: str, name: str, **kwargs: Any) -> Any:
    """Instantiate the component registered as ``(kind, name)``."""
    return get_factory(kind, name)(**kwargs)


def is_registered(kind: str, name: str) -> bool:
    _check_kind(kind)
    _load_builtins(kind)
    return name in _factories[kind]


def available(kind: Optional[str] = None) -> Any:
    """Sorted names of one ``kind``, or a ``{kind: names}`` dict for all."""
    if kind is None:
        return {k: available(k) for k in KINDS}
    _check_kind(kind)
    _load_builtins(kind)
    return sorted(_factories[kind])
