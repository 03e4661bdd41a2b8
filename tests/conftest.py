"""One switch runs the whole suite on scipy's LAPACK instead of numpy's:

    RANDSKEL_TEST_LAPACK=scipy PYTHONPATH=src python -m pytest -q

It hides numpy's bundled OpenBLAS runtime from ``randskel.dense``, as the
``fallback`` leg of ``tests/test_dense.py``'s ``lapack_path`` fixture does for
one test, so that ``dense._lapack`` binds scipy's LP64 LAPACK through
``scipy.linalg.cython_lapack``. Tests that assert numpy's own runtime or bits
check ``dense._numpy_openblas()`` and skip or compare with scipy's bits.

On either leg the suite runs with BLAS at one thread (``one_blas_thread``);
a test whose claim is about a thread count sets its own with
``dense.blas_threads``. On the scipy leg numpy's runtime, hidden from
``dense`` but still running numpy's own products, is set to one thread
before it is hidden.
"""

import os

import pytest


def pytest_configure(config):
    source = os.environ.get("RANDSKEL_TEST_LAPACK", "numpy")
    if source not in ("numpy", "scipy"):
        raise pytest.UsageError(f"RANDSKEL_TEST_LAPACK must be numpy or scipy, got {source!r}")
    if source == "scipy":
        from randskel import dense

        for set_threads, _ in dense._blas_runtimes():
            set_threads(1)
        dense._numpy_openblas = lambda: ()
        dense._lapack.cache_clear()
        dense._lapack("dgesdd")  # loads scipy's runtime before any blas_threads looks for one


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite with every loaded OpenBLAS runtime at one thread; a test
    whose claim is about a thread count sets its own. Where no bundled
    OpenBLAS is loaded there is no count to set, and ``blas_threads``, which
    would warn (an error under this suite's filters), is not entered."""
    from randskel import dense

    if not dense._blas_runtimes():
        yield
        return
    with dense.blas_threads(1):
        yield
