"""One switch runs the whole suite on scipy's LAPACK instead of numpy's:

    RANDSKEL_TEST_LAPACK=scipy PYTHONPATH=src python -m pytest -q

It hides numpy's bundled OpenBLAS runtime from ``randskel.dense``, as the
``fallback`` leg of ``tests/test_dense.py``'s ``lapack_path`` fixture does for
one test, so that ``dense._lapack`` binds scipy's LP64 LAPACK through
``scipy.linalg.cython_lapack``. Tests that assert numpy's own runtime or bits
check ``dense._numpy_openblas()`` and skip or compare with scipy's bits.
"""

import os

import pytest


def pytest_configure(config):
    source = os.environ.get("RANDSKEL_TEST_LAPACK", "numpy")
    if source not in ("numpy", "scipy"):
        raise pytest.UsageError(f"RANDSKEL_TEST_LAPACK must be numpy or scipy, got {source!r}")
    if source == "scipy":
        from randskel import dense

        dense._numpy_openblas = lambda: ()
        dense._lapack.cache_clear()
        dense._lapack("dgesdd")  # loads scipy's runtime before any blas_threads looks for one
