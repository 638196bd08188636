"""The environment of the fresh interpreters the tests start."""

import os

import cflat


def child_env(*paths: str) -> dict:
    """os.environ with cflat's source directory, then paths, ahead of
    PYTHONPATH, and one BLAS and one OpenMP thread, as bench/run.py sets
    them: with a BLAS thread per core, a child's matrix products also ran
    on the second core, and its wall time followed whatever else that core
    was running."""
    src = os.path.dirname(os.path.dirname(cflat.__file__))
    path = os.pathsep.join(filter(None, [src, *paths, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
