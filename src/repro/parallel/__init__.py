"""The core budget of a forked serving worker.

NumPy's BLAS sizes its thread pool to every visible core; ``W`` forked
serving workers would each spin that many threads.  :mod:`repro.parallel.blas`
caps a worker's pool to its ``cores // W`` share.  Frames of one batch
finish in a plain loop inside each engine: there is no thread pool below
the serving layer.
"""

from repro.parallel.blas import available_cores, limit_blas_threads

__all__ = ["available_cores", "limit_blas_threads"]
