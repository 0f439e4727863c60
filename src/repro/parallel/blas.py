"""Cap the BLAS thread pool of the calling process to a core share.

NumPy's BLAS sizes its pool to every visible core.  That is right for one
process; ``W`` forked serving workers each spinning ``cores`` BLAS threads
oversubscribe the machine ``W``-fold and mostly burn CPU in spin-waits.
:func:`limit_blas_threads` lets each worker take ``cores // W`` instead.

threadpoolctl does the job when importable.  Otherwise the setter is looked
up via :mod:`ctypes` in the BLAS library the process has *already mapped*
(NumPy's wheels export ``scipy_openblas_set_num_threads64_``; plain
OpenBLAS and MKL names are tried too).  When nothing matches the call is a
silent no-op: the cap is an optimisation, never a requirement.
"""

from __future__ import annotations

import ctypes
import os
from typing import List, Optional

#: Setter symbols, most specific first (NumPy wheel, OpenBLAS, MKL).
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "MKL_Set_Num_Threads",
)


def available_cores() -> int:
    """CPU cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _mapped_blas_libraries() -> List[str]:
    """Paths of the BLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "/" in line}
    except OSError:
        return []
    return sorted(
        path
        for path in paths
        if any(tag in os.path.basename(path) for tag in ("openblas", "mkl_rt"))
    )


def limit_blas_threads(limit: int) -> Optional[int]:
    """Cap this process's BLAS pool at ``limit`` threads.

    Returns the limit applied, or ``None`` when no controllable BLAS
    library was found (nothing changed).
    """
    limit = max(1, int(limit))
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        pass
    else:
        threadpool_limits(limits=limit, user_api="blas")
        return limit
    applied = None
    for path in _mapped_blas_libraries():
        try:
            library = ctypes.CDLL(path)  # already mapped: a handle, not a load
        except OSError:
            continue
        for symbol in _SETTERS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(limit)
                applied = limit
                break
    return applied
