"""Dense factorization kernels and the operator adapter.

Thin wrappers over LAPACK that add the rank checks, pivot bookkeeping, and
error contracts the rest of the library relies on. Every factorization and
solve of the library runs here, none through ``np.linalg``: each makes the
calls of scipy's wrappers, with their bits, through ctypes, which releases
the GIL. One kernel has one body: :func:`_lapack` alone knows where LAPACK
lives. It is numpy's bundled OpenBLAS, or, where numpy bundles none,
scipy's, a second runtime with its own threads.

* :func:`qr_ortho` -- orthonormal basis of a full-column-rank tall matrix,
  by :func:`_qr`: ``dgeqrf`` and ``dorgqr``, or, on the tall route
  (:func:`_tall_rows`), a tall-skinny QR by row blocks (:func:`_tsqr`),
* :func:`orth` -- orthonormal basis truncated at the detected rank,
* :func:`lstsq_full_rank` -- ``M^+ B`` by a rank-checked QR and
  :func:`solve_upper`, a triangular solve,
* :func:`svd_thin` and :func:`svdvals` -- economy SVD and singular values,
  by :func:`_gesdd`: the SVD of ``R`` of :func:`_tsqr` on the tall route,
  else numpy's one ``dgesdd`` call, with the GIL released,
* :func:`_project_out` -- the residual of an orthonormal basis projected
  out, behind every range error, angle sine and posterior bound,
* :func:`lupp` and :func:`cpqr` -- LU with partial (row) pivoting, QR with
  greedy column pivoting,
* :func:`spectral_norm_estimate` -- randomized power-method lower estimate,
* :func:`_seed_sequence`, :func:`_child_seeds`, :func:`_count`,
  :func:`_real` and :func:`_spectrum` -- the one reading of a seed, a size
  or count, a real parameter and a spectrum,
* :func:`blas_threads` -- run a block with every loaded OpenBLAS runtime at
  a given thread count, restoring each runtime's own count on exit.

Routines treat inputs as immutable and are pure functions of their
arguments (safe to call concurrently). Every rank decision counts the
leading diagonal entries (or singular values) at or above ``RANK_RTOL``
times a per-routine reference.

Data from outside the library is checked once, where it enters: each array
argument of a public call by :func:`as_matrix` (or :func:`as_operator`),
and each result of a matvec-only operator by
:meth:`_MatvecOperator.matmat`. Here the checked entries are
:func:`qr_ortho`, :func:`svd_thin`, :func:`svdvals`, :func:`lupp` and
:func:`cpqr`; every other routine, the kernels among them, takes finite
float64 arrays and scans none. A product of finite arrays may still leave
the float range: :func:`_in_range` guards it where it arises, so no kernel
is handed a non-finite array, and a norm beyond the range raises.

The randomized routines also accept a matvec-only operator, such as a
``scipy.sparse.linalg.LinearOperator``: an object with ``shape``,
``matmat(M)`` (``A @ M``) and ``rmatmat(M)`` (``A.T @ M``), each result of
the shape that product has, else :class:`ShapeMismatch`. :func:`as_operator`
wraps either kind once, at each public entry, and is the only code that
tells them apart. Each kind states one side: ``matmat``, ``columns``,
``right_sketch`` and the transpose view ``T``; every transposed member is
its twin on ``T``. A matvec-only operator's slices are products with unit
vectors, read like every other product; a dense one's are gathered in row
tiles, Fortran-ordered for the QR and LU that consume them.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BadShape, ConvergenceFailure, RankDeficient, ShapeMismatch, ZeroDimension

#: Relative magnitude below which a pivot/diagonal counts as zero.
RANK_RTOL = 1e-12

#: Rows per tile of a dense column gather: a tile's rows stay in cache while
#: each selected column is read from them.
_GATHER_ROWS = 512

#: Rows per block of the tall QR of an m x n input: max(_TSQR_ROWS, 4n). The
#: input takes that route from two blocks on, m >= 2 max(_TSQR_ROWS, 4n);
#: below that the QR keeps ``dgeqrf``'s bits. Measured at 1 BLAS thread, the
#: route takes about half ``dgeqrf``'s time on 50000 x 64 and 3000 x 100;
#: blocks of only 2n rows ran up to 12% slower than ``dgeqrf`` on 2048 x 400
#: and 2048 x 512.
_TSQR_ROWS = 1024

#: Reflectors per compact-WY block (``NB``) of the tall QR's LAPACK calls.
_TSQR_NB = 32


def as_matrix(a, name="matrix"):
    """Validate ``a`` as a finite 2-D float64 array and return it C-ordered."""
    try:
        arr = np.ascontiguousarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        raise BadShape(f"{name} must be a numeric array, got {type(a).__name__}") from None
    if arr.ndim != 2:
        raise BadShape(f"{name} must be 2-D, got ndim={arr.ndim}")
    return _check_finite(arr, f"{name} contains non-finite entries")


def _check_finite(arr, message):
    """The 2-D float64 ``arr`` if it is finite, else :class:`BadShape` with
    ``message``. A NaN or inf leaves its row's sum non-finite, so only rows whose
    sum is not finite are read entry by entry: no ``m x n`` temporary, no warning."""
    if arr.size:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = arr @ np.ones(arr.shape[1])
        if not np.isfinite(sums).all() and not np.isfinite(arr[~np.isfinite(sums)]).all():
            raise BadShape(message)
    return arr


def _in_range(what, product, *args):
    """``product(*args)``, an array or a tuple of them formed from finite arrays
    with numpy's overflow warnings off; :class:`BadShape` naming ``what`` if
    one left the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = product(*args)
    for part in out if isinstance(out, tuple) else (out,):
        _check_finite(part, f"{what} overflows the float range: it has non-finite entries")
    return out


def _index_vector(idx, size, name):
    """``idx`` as an intp vector of integers in ``[0, size)``. Anything else
    raises :class:`BadShape`: numpy would truncate a fractional index, wrap a
    negative one and raise a bare ``IndexError`` past the end."""
    arr = np.asarray(idx)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuf"):
        raise BadShape(f"{name} must be a vector of integer indices")
    if arr.dtype.kind == "f" and not (np.isfinite(arr) & (arr == np.trunc(arr))).all():
        raise BadShape(f"{name} has non-integer entries")
    if arr.size and (arr.min() < 0 or arr.max() >= size):
        raise BadShape(f"{name} entries must lie in [0, {size}), got {arr.min()}..{arr.max()}")
    return arr.astype(np.intp)


def _seed_sequence(seed):
    """``seed`` as a :class:`numpy.random.SeedSequence`: ``None`` is
    ``SeedSequence(0)``, a non-negative int or a sequence of them is the
    entropy, and a ``SeedSequence`` is returned as it is. Anything else raises
    :class:`BadShape`."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    try:
        return np.random.SeedSequence(0 if seed is None else seed)
    except (TypeError, ValueError):
        raise BadShape("seed must be None, a non-negative int, a sequence of them "
                       f"or a SeedSequence, got {seed!r}") from None


def _count(value, name, low, high=None):
    """``value`` as an ``int`` in ``[low, high]`` (no upper end when ``high``
    is None): a Python or numpy integer, not a bool. Anything else raises
    :class:`BadShape` naming ``name``, the range and the value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and low <= value and (high is None or value <= high):
        return int(value)
    allowed = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise BadShape(f"{name} must be an integer {allowed}, got {name}={value!r}")


def _real(value, name, low, high, closed=False):
    """``value`` as a ``float`` in the open interval ``(low, high)``, or in
    ``(low, high]`` when ``closed``: a Python or numpy real number, not a bool;
    an infinite bound is never reached, so the value is finite. Anything else
    raises :class:`BadShape` naming ``name``, the range and the value."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    x = float(value) if real and abs(value) <= sys.float_info.max else np.nan
    if low < x and (x <= high if closed else x < high):
        return x
    if high != np.inf:
        allowed = f"in ({low}, {high}{']' if closed else ')'}"
    else:
        allowed = "a finite real number" if low == -np.inf else f"finite and above {low}"
    raise BadShape(f"{name} must be {allowed}, got {name}={value!r}")


def _spectrum(values, name, size=None):
    """``values`` as a non-empty float64 vector (of length ``size`` when given)
    that is finite, positive and nonincreasing to within 1e-15. Anything else
    raises :class:`BadShape` naming ``name`` and the first entry at fault."""
    try:
        s = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise BadShape(f"{name} must be a numeric vector, got {type(values).__name__}") from None
    if s.ndim != 1 or s.size == 0 or size is not None and s.size != size:
        length = "non-empty" if size is None else f"length-{size}"
        raise BadShape(f"{name} must be a {length} vector, got shape {s.shape}")
    bad = np.flatnonzero(~(np.isfinite(s) & (s > 0)))
    bad = bad if bad.size else 1 + np.flatnonzero(np.diff(s) > 1e-15)
    if bad.size:
        raise BadShape(f"{name} must be finite, positive and nonincreasing, "
                       f"got {name}[{bad[0]}]={float(s[bad[0]])!r}")
    return s


def _child_seeds(seed, n):
    """The ``n`` child streams that ``spawn(n)`` returns on a fresh copy of
    :func:`_seed_sequence` of ``seed``. A caller's ``SeedSequence`` is only
    read: its ``n_children_spawned`` is not advanced, so the same seed gives
    the same children on every call."""
    parent = _seed_sequence(seed)
    return [np.random.SeedSequence(parent.entropy, spawn_key=(*parent.spawn_key, i),
                                   pool_size=parent.pool_size) for i in range(n)]


class Operator:
    """A dense matrix under the operator protocol, plus its sketches by an
    embedding. Build it with :func:`as_operator`. Its transposed members are
    their twins on ``T``: ``rmatmat(M)`` is ``T.matmat(M)`` and ``rows(I)``
    is ``T.columns(I).T``, C-ordered."""

    def __init__(self, A):
        self.A, self.shape = A, tuple(A.shape)

    @property
    def T(self):
        return Operator(self.A.T)

    def matmat(self, M):
        return self.A @ M

    def rmatmat(self, M):
        return self.T.matmat(M)

    def columns(self, J):
        """``A[:, J]`` as a Fortran-ordered ``m x |J|`` block (the transpose of
        a C-ordered ``|J| x m`` buffer filled one row tile at a time); a tile is
        gathered by fancy index, which, unlike ``np.take``, copies no view whole."""
        J = np.asarray(J, dtype=np.intp)
        m = self.shape[0]
        out = np.empty((J.size, m))
        for i in range(0, m, _GATHER_ROWS):
            out[:, i:i + _GATHER_ROWS] = self.A[i:i + _GATHER_ROWS][:, J].T
        return out.T

    def rows(self, I):
        return np.ascontiguousarray(self.T.columns(I).T)

    def sandwich(self, L, R):
        """``L.T @ A @ R`` in the order of fewer multiply-adds, as
        ``np.linalg.multi_dot`` picks it: ``(L.T @ A) @ R`` when that is
        strictly cheaper, else ``L.T @ (A @ R)``, so a tie (every square
        ``A`` with ``L`` and ``R`` of one width) keeps ``A @ R`` first."""
        (m, n), a, b = self.shape, L.shape[1], R.shape[1]
        if a * n * (m + b) < m * b * (n + a):
            return self._left_product(L) @ R
        return L.T @ self.matmat(R)

    def _left_product(self, L):
        """``L.T @ A``, faster than ``(A^T L)^T`` on a C-ordered ``A``."""
        return L.T @ self.A

    def right_sketch(self, emb):
        """``A @ G.T`` for an embedding ``G`` of the columns, by its unchecked body
        on the view ``A.T``."""
        return np.ascontiguousarray(emb._sketch(self.A.T).T)


class _MatvecOperator(Operator):
    """Products are the operator's; a slice is the product with a block of unit
    vectors, and a sketch materializes the embedding. ``T`` is the same object
    with ``matmat`` and ``rmatmat`` swapped."""

    def __init__(self, A, transposed=False):
        missing = [name for name in ("matmat", "rmatmat") if not callable(getattr(A, name, None))]
        if missing:
            raise BadShape(f"matvec-only operator lacks {', '.join(missing)}")
        try:
            m, n = A.shape
        except (AttributeError, TypeError, ValueError):
            raise BadShape("matvec-only operator needs a shape (m, n), "
                           f"got {getattr(A, 'shape', None)!r}") from None
        shape = (_count(m, "shape[0]", 0), _count(n, "shape[1]", 0))
        self.A, self._transposed = A, transposed
        self.shape = shape[::-1] if transposed else shape

    @property
    def T(self):
        return _MatvecOperator(self.A, not self._transposed)

    def matmat(self, M):
        """The operator's own product with ``M``, its ``rmatmat`` on the view
        ``T``: :class:`ShapeMismatch` naming that member unless the result has
        the product's shape, else read by :func:`as_matrix`."""
        member = "rmatmat" if self._transposed else "matmat"
        out, shape = getattr(self.A, member)(M), (self.shape[0], M.shape[1])
        if np.shape(out) != shape:
            raise ShapeMismatch(f"operator {member} returned shape {np.shape(out)}, "
                                f"expected {shape}")
        return as_matrix(out, f"operator {member}")

    def columns(self, J):
        E = np.zeros((self.shape[1], len(J)))  # column t is the unit vector e_J[t]
        E[J, np.arange(len(J))] = 1.0
        return self.matmat(E)

    def _left_product(self, L):
        return self.rmatmat(L).T

    def right_sketch(self, emb):
        if emb.in_dim != self.shape[1]:
            raise ShapeMismatch(f"embedding expects dimension {emb.in_dim}, got {self.shape[1]}")
        return self.matmat(np.ascontiguousarray(emb.to_dense().T))


def as_operator(A):
    """Wrap ``A`` once as an :class:`Operator`. An input with ``matmat`` or
    ``rmatmat`` must carry both and a ``shape`` of two counts, else
    :class:`BadShape`; a slice of it costs ``|J|`` or ``|I|`` products and one
    ``n x |J|`` or ``m x |I|`` unit block. Any other input is validated by
    :func:`as_matrix` and not copied when already C-ordered float64."""
    if isinstance(A, Operator):
        return A
    if hasattr(A, "matmat") or hasattr(A, "rmatmat"):
        return _MatvecOperator(A)
    return Operator(as_matrix(A, "A"))


def _detected_rank(diag, ref):
    """Number of leading ``|d| >= RANK_RTOL * ref`` in ``diag``; 0 when ``ref == 0``."""
    if ref == 0.0:
        return 0
    small = np.flatnonzero(np.abs(diag) < RANK_RTOL * ref)
    return int(small[0]) if small.size else len(diag)


def _norm_fro(M):
    """``||M||_F`` of a finite ``M``, inf beyond the float range. numpy's plain
    sum of squares underflows to 0 for entries below about 1e-154 and
    overflows above about 1e154; only then is ``M`` scaled by ``max|M|``
    first, so in-range inputs keep that sum's bits."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
        if (norm == 0.0 or norm == np.inf) and M.size:
            top = max(M.max(), -M.min())
            if top > 0.0:
                norm = float(top * np.linalg.norm(M / top))
    return norm


def _r_checked(M, error=RankDeficient, name="M"):
    """``R`` of the reduced QR ``M = Q R`` and a function that forms ``Q``
    (:func:`_qr`); raises ``error`` unless ``M`` is numerically full column
    rank (reference ``||M||_F``). ``Q`` is formed only if that function is called."""
    r, form_q = _qr(M)
    rank = _detected_rank(np.diag(r), _norm_fro(M))
    if rank < M.shape[1]:
        raise error(f"{name} has detected rank {rank} of {M.shape[1]} columns")
    return np.ascontiguousarray(r), form_q


def qr_checked(M, error=RankDeficient, name="M"):
    """Reduced QR ``M = Q R``; raises ``error`` unless ``M`` is numerically
    full column rank (reference ``||M||_F``)."""
    # LAPACK returns Fortran-ordered factors; callers get C order, as from
    # as_matrix, since the layout decides how later BLAS products round
    r, form_q = _r_checked(M, error, name)
    return np.ascontiguousarray(form_q()), r


def lstsq_full_rank(M, B, error=RankDeficient, name="M"):
    """``M^+ B`` (Fortran-ordered) by :func:`qr_checked` and :func:`solve_upper`,
    with no pseudoinverse formed; raises ``error`` unless ``M`` is numerically
    full column rank, and :class:`BadShape` if it overflows (:func:`_in_range`)."""
    q, r = qr_checked(M, error, name)
    return _in_range("the least-squares solution", lambda: solve_upper(r, q.T @ B))


@dataclass(frozen=True)
class PivotedLU:
    """Row-pivoted LU of a tall matrix: ``M[perm] = L @ U``.

    ``perm[:cols]`` are the pivot rows in selection order; ``L`` is unit
    lower trapezoidal with off-diagonal magnitudes <= 1; ``U`` is upper
    triangular. ``rank_detected`` counts pivots above the rank tolerance.
    """

    perm: np.ndarray
    L: np.ndarray
    U: np.ndarray
    rank_detected: int


@dataclass(frozen=True)
class PivotedQR:
    """Column-pivoted QR: ``M[:, perm] = Q @ R`` with |R_ii| nonincreasing,
    ``rank_detected`` of them above the rank tolerance."""

    perm: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    rank_detected: int


@dataclass(frozen=True)
class ThinSVD:
    """Economy SVD ``M = U @ diag(sigma) @ V.T`` with nonincreasing sigma."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank(self):
        """Numerical rank: singular values at or above ``RANK_RTOL * sigma[0]``."""
        return _detected_rank(self.sigma, self.sigma[0] if self.sigma.size else 0.0)


def qr_ortho(M):
    """Return an orthonormal basis ``Q`` with span(Q) = span(M).

    ``M`` must be tall (rows >= cols) and numerically full column rank;
    otherwise :class:`RankDeficient` is raised. The rank test compares each
    |R_ii| of the reduced QR against ``RANK_RTOL * ||M||_F``.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    if m < n:
        raise BadShape(f"need rows >= cols, got {m}x{n}")
    return _check_finite(qr_checked(M)[0], "Q overflows the float range: it has non-finite entries")


def orth(M):
    """Orthonormal basis of span(M), truncated at the detected rank: ``Q`` of
    :func:`qr_checked` at full column rank, else the leading
    :attr:`ThinSVD.rank` left singular vectors. Raises :class:`RankDeficient` at rank 0."""
    try:
        return qr_checked(M)[0]
    except RankDeficient:
        f = _svd(M)
    if f.rank == 0:
        raise RankDeficient("input has no numerically nonzero directions")
    return f.U[:, :f.rank]


def svd_thin(M):
    """Economy SVD of ``M`` as a :class:`ThinSVD`, by :func:`_gesdd`, in numpy's
    layout (C-ordered ``U`` and ``V^T``), which decides how later products round."""
    return _svd(as_matrix(M, "M"))


def _svd(M):
    """:func:`svd_thin` of a finite float64 ``M``, not checked."""
    u, sigma, vt = _gesdd(M, vectors=True)
    return ThinSVD(U=np.ascontiguousarray(u), sigma=sigma, V=np.ascontiguousarray(vt).T)


def _openblas_libs(pkg):
    """Handles of the OpenBLAS runtimes that the wheel of ``pkg`` bundles
    (``<pkg>.libs``, or ``<pkg>/.dylibs`` on macOS) and this process loaded."""
    root = os.path.dirname(pkg.__file__)
    libs = []
    for pattern in (root + ".libs/*openblas*", os.path.join(root, ".dylibs", "*openblas*")):
        for path in sorted(glob.glob(pattern)):
            try:  # RTLD_NOLOAD: a library this process has not loaded is skipped
                libs.append(ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0)))
            except OSError:
                continue
    return tuple(libs)


@functools.cache
def _numpy_openblas():
    """numpy's bundled OpenBLAS runtimes; they load with numpy, so once is enough."""
    return _openblas_libs(np)


def _bundled_openblas():
    """The bundled OpenBLAS runtimes this process loaded, numpy's first.

    scipy's runtime loads with ``scipy.linalg``, which a caller may import
    at any time (randskel imports it only where numpy bundles no OpenBLAS),
    so it is looked up on every call.
    """
    scipy = sys.modules.get("scipy")
    return _numpy_openblas() + (_openblas_libs(scipy) if scipy is not None else ())


#: The LAPACK routines called here: their argument count, ``INFO`` included,
#: and how many of the leading arguments are characters, whose lengths the
#: Fortran ABI passes after the last argument.
_LAPACK_ARGS = {"dgeqrf": (8, 0), "dorgqr": (9, 0), "dgeqp3": (9, 0), "dgetrf": (6, 0),
                "dtrtrs": (10, 3), "dgesdd": (14, 1), "dgeqrt": (9, 0), "dtpqrt": (12, 0),
                "dtpmqrt": (17, 2), "dgemqrt": (14, 2)}


class _Routine:
    """A LAPACK routine called through ctypes, which releases the GIL. Its
    integers are ``c_int`` wide: 64-bit in numpy's ILP64 OpenBLAS, 32-bit in
    scipy's LP64 one; its ``jpvt``, ``ipiv`` and ``iwork`` arrays have dtype
    ``int``, the same width."""

    def __init__(self, name, function, c_int, lengths):
        self.name, self.function, self.lengths = name, function, lengths
        self.c_int, self.int = c_int, np.dtype(c_int)

    def __call__(self, *args):
        """Every argument but the final ``INFO``, which is returned: ints by
        reference, arrays as their data pointers, characters as bytes, None
        as a null pointer."""
        info = self.c_int(0)
        self.function(*[ctypes.byref(self.c_int(a)) if isinstance(a, int)
                        else a.ctypes.data if isinstance(a, np.ndarray) else a for a in args],
                      ctypes.byref(info), *self.lengths)
        if info.value < 0:
            raise ValueError(f"illegal value in argument {-info.value} of {self.name}")
        return info.value


@functools.cache
def _lapack(name):
    """LAPACK's ``name`` as a :class:`_Routine`; the only code that knows where
    LAPACK lives. It is numpy's bundled ILP64 OpenBLAS (``scipy_<name>_64_``
    in numpy>=2 wheels, ``<name>_64_`` in older ones) or, where that runtime
    is not loaded, scipy's LP64 one, through the pointer that
    ``scipy.linalg.cython_lapack`` publishes (its C wrapper takes no
    character lengths)."""
    count, chars = _LAPACK_ARGS[name]
    for lib in _numpy_openblas():
        for symbol in (f"scipy_{name}_64_", f"{name}_64_"):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.argtypes = [ctypes.c_void_p] * count + [ctypes.c_size_t] * chars
                function.restype = None
                return _Routine(name, function, ctypes.c_int64, (1,) * chars)
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule, api, obj = __pyx_capi__[name], ctypes.pythonapi, ctypes.py_object
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    function = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * count)(
        get_pointer(capsule, get_name(capsule)))  # the capsule is named after its C signature
    return _Routine(name, function, ctypes.c_int32, ())


def _with_workspace(routine, *args, after=()):
    """Run ``routine`` with ``args``, then ``WORK, LWORK``, then ``after``:
    first as a workspace query (``LWORK = -1``), then with the workspace it
    asks for, as scipy's wrappers do. Returns ``INFO``."""
    query = np.empty(1)
    routine(*args, query, -1, *after)
    work = np.empty(max(int(query[0]), 1))
    return routine(*args, work, work.size, *after)


def _qr(M):
    """Economic QR of a finite real ``M``, factored in float64: ``R``, and a
    function that forms ``Q``, so a caller that reads only ``R`` forms none;
    call it once, as ``dorgqr`` forms ``Q`` over the packed factor.

    An m x n input of at least two blocks of ``max(_TSQR_ROWS, 4n)`` rows
    takes the tall route, :func:`_tsqr`, whose ``Q`` is C-ordered. Any other
    is factored by ``dgeqrf`` and its ``Q`` formed by ``dorgqr``, as
    ``scipy.linalg.qr(M, mode="economic")`` returns them: Fortran-ordered,
    with scipy's bits.
    """
    m, n = M.shape
    a, rows = np.array(M, dtype=np.float64, order="F"), _tall_rows(m, n)
    if rows:
        return _tsqr(a, rows)
    tau = np.empty(min(m, n))
    if tau.size:
        _with_workspace(_lapack("dgeqrf"), m, n, a, m, tau)
    return np.triu(a[:tau.size]), lambda: _orgqr(a, tau)


def _tall_rows(m, n):
    """Rows per block of the tall route for an m x n input, or 0 when the
    input takes LAPACK's own route: it needs two blocks of ``max(_TSQR_ROWS, 4n)``."""
    rows = max(_TSQR_ROWS, 4 * n)
    return rows if n and m >= 2 * rows else 0


def _orgqr(a, tau):
    """``Q`` of the economic QR that ``dgeqrf`` or ``dgeqp3`` packed into the
    Fortran-ordered ``a``, formed by ``dorgqr`` in ``a``'s leading columns."""
    m, k = a.shape[0], tau.size
    if k:
        _with_workspace(_lapack("dorgqr"), m, k, k, a, m, tau)
    return a[:, :k]


def _tsqr(a, rows):
    """``R`` and a ``Q``-forming function of the economic QR of the Fortran-ordered
    m x n ``a`` (m >= 2 ``rows``, ``rows`` >= n), by row blocks (TSQR; Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 2012), as LAPACK's
    ``dlatsqr``/``dorgtsqr`` do it, with the four routines that scipy's
    ``cython_lapack`` also publishes.

    ``dgeqrt`` factors the first block of ``rows`` rows, and ``dtpqrt`` folds
    each further block into the running ``R`` in ``a[:n]``, the block's
    reflectors overwriting it in ``a``; the last block also takes the rows
    left over, so no block is shorter than ``rows``. ``Q^T`` is ``[I 0]``
    times the blocks' reflectors in reverse, by ``dtpmqrt`` and, last,
    ``dgemqrt`` on the first block, all BLAS-3: formed as a Fortran-ordered
    n x m array, it is a C-ordered ``Q``.
    """
    m, n = a.shape
    nb = min(_TSQR_NB, n)
    starts = range(0, m - rows + 1, rows)
    ends = [*starts[1:], m]
    t = np.empty((len(starts), n, nb))  # each block's nb x n Fortran-ordered T
    work = np.empty(nb * n)
    _lapack("dgeqrt")(ends[0], n, nb, a, m, t[0], nb, work)
    for i in range(1, len(starts)):
        _lapack("dtpqrt")(ends[i] - starts[i], n, 0, nb, a, m, a[starts[i]:], m, t[i], nb, work)

    def form_q():
        qt = np.zeros((n, m), order="F")
        np.fill_diagonal(qt, 1.0)
        for i in reversed(range(1, len(starts))):
            _lapack("dtpmqrt")(b"R", b"T", n, ends[i] - starts[i], n, 0, nb, a[starts[i]:], m,
                               t[i], nb, qt, n, qt[:, starts[i]:], n, work)
        _lapack("dgemqrt")(b"R", b"T", n, ends[0], n, nb, a, m, t[0], nb, qt, n, work)
        return qt.T

    return np.triu(a[:n]), form_q


def _cpqr_pivots(M):
    """Column order, detected rank (reference ``max|M|``), packed factor and
    reflector scalars of ``dgeqp3``'s greedy column-pivoted QR of a finite real
    ``M``, factored in float64; ``Q`` is not formed."""
    m, n = M.shape
    a, tau = np.array(M, dtype=np.float64, order="F"), np.empty(min(m, n))
    if tau.size == 0:
        return np.arange(n), 0, a, tau
    geqp3 = _lapack("dgeqp3")
    perm = np.zeros(n, dtype=geqp3.int)  # 0: every column is free to pivot
    _with_workspace(geqp3, m, n, a, m, perm, tau)
    # max|M| without an m x n temporary of absolute values
    return perm.astype(np.intp) - 1, _detected_rank(np.diag(a), max(M.max(), -M.min())), a, tau


def _gesdd(M, vectors=False):
    """``(U, sigma, V^T)`` of a finite real ``M``: ``jobz='S'`` with
    ``vectors`` (economy factors, of numpy's shapes when ``M`` is empty),
    else ``jobz='N'``, and ``U`` and ``V^T`` are None.

    A tall input (:func:`_tall_rows`) is factored by :func:`_qr`'s tall
    route and the SVD taken of its ``n x n`` ``R`` alone, ``Q`` formed only
    for ``U = Q U_R``; a wide one takes that route through its transpose. Any
    other input is numpy's one ``dgesdd`` call on a Fortran-ordered copy,
    with the workspace it asks for, through ctypes with the GIL released,
    where numpy holds it for the whole call; the bits are numpy's, or
    scipy's where numpy bundles no LAPACK, and the factors are
    Fortran-ordered.
    """
    m, n = M.shape
    if _tall_rows(n, m):
        vt, s, u = _gesdd(M.T, vectors)
        return (u.T, s, vt.T) if vectors else (None, s, None)
    if _tall_rows(m, n):
        r, form_q = _qr(M)
        u, s, vt = _gesdd(r, vectors)
        return (form_q() @ u if vectors else None), s, vt
    k = min(m, n)
    s = np.empty(k)
    # jobz='N' references neither factor, so they may be null
    u, vt = (np.empty((m, k), order="F"), np.empty((k, n), order="F")) if vectors else (None,) * 2
    if k:
        gesdd = _lapack("dgesdd")
        a = np.array(M, dtype=np.float64, order="F")  # dgesdd overwrites it
        info = _with_workspace(gesdd, b"S" if vectors else b"N", m, n, a, m, s, u, m, vt, k,
                               after=(np.empty(8 * k, dtype=gesdd.int),))
        if info != 0:
            raise ConvergenceFailure(f"dgesdd did not converge (info={info})")
        if s[0] == np.inf:
            raise BadShape("a singular value exceeds the float range")
    return u, s, vt


def svdvals(M):
    """Singular values of ``M``, nonincreasing, by a values-only :func:`_gesdd`."""
    return _gesdd(as_matrix(M, "M"))[1]


def _project_out(M, Q, side):
    """``M - Q (Q^T M)`` (``side="left"``) or ``M - (M Q) Q^T`` (right): the one
    order of products, which decides the bits of every such residual. ``Q``
    must have as many rows as ``M`` has rows (left) or columns (right). Near
    the float range the residual can overflow: :class:`BadShape` there
    (:func:`_in_range`), where LAPACK alone would return NaN."""
    if side == "left":
        if Q.shape[0] != M.shape[0]:
            raise ShapeMismatch("left basis rows must match A rows")
        return _in_range("the residual M - Q Q^T M", lambda: M - Q @ (Q.T @ M))
    if Q.shape[0] != M.shape[1]:
        raise ShapeMismatch("right basis rows must match A columns")
    return _in_range("the residual M - M Q Q^T", lambda: M - (M @ Q) @ Q.T)


def spectral_norm(M):
    """``||M||_2`` of a finite ``M``, the largest of its values-only
    :func:`_gesdd`; 0.0 for an empty ``M``."""
    s = _gesdd(M)[1]
    return float(s[0]) if s.size else 0.0


#: (set, get) thread-count symbols of the OpenBLAS builds that numpy (ILP64,
#: suffixed) and scipy wheels bundle: numpy>=2 and scipy>=1.13 prefix them
#: with ``scipy_``, older wheels do not.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _blas_runtimes():
    """``(set_num_threads, get_num_threads)`` of every bundled OpenBLAS runtime
    this process loaded."""
    found = []
    for lib in _bundled_openblas():
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


@contextmanager
def blas_threads(n):
    """Run the block with every loaded OpenBLAS runtime at ``n`` threads, and
    restore each runtime's own count on exit, also when the block raises.

    randskel's BLAS runs in numpy's runtime, and its LAPACK too where numpy
    bundles one. scipy's, which starts threads of its own, loads when
    ``scipy.linalg`` is imported: by a caller, or by randskel for its LAPACK
    where numpy bundles none. It is set too when it is loaded on entry to
    the block.

    The setting is process-wide: enter it around a thread pool that owns the
    cores, not from inside the pool's workers. Runtimes that are not
    OpenBLAS builds bundled with numpy or scipy are left alone; when none is
    found, a :class:`RuntimeWarning` says so and the block runs unchanged.
    """
    n = _count(n, "n", 1)
    runtimes = _blas_runtimes()
    if not runtimes:
        warnings.warn("blas_threads: no OpenBLAS runtime bundled with numpy or scipy is "
                      "loaded; BLAS thread counts are left unchanged", RuntimeWarning,
                      stacklevel=3)
    saved = [get() for _, get in runtimes]
    try:
        for set_threads, _ in runtimes:
            set_threads(n)
        yield
    finally:
        for (set_threads, _), count in zip(runtimes, saved):
            set_threads(count)


def _lu_pivots(M):
    """Row order, detected rank and LAPACK's packed factor of the partial-pivoted
    LU of a finite, tall real ``M`` in any memory order, factored in float64 in
    the one Fortran-ordered copy that ``dgetrf`` overwrites. ``L`` and ``U``
    are not formed. Ties between equal pivot magnitudes break toward the
    lowest row index; the rank reference is ``max|M|``."""
    m, n = M.shape
    if m < n:
        raise BadShape(f"need rows >= cols, got {m}x{n}")
    if n == 0:
        return np.arange(m), 0, np.zeros((m, 0))
    getrf = _lapack("dgetrf")
    lu = np.array(M, dtype=np.float64, order="F")  # dgetrf reads 8-byte entries
    piv = np.empty(n, dtype=getrf.int)
    getrf(m, n, lu, m, piv)  # INFO > 0 flags an exactly zero pivot: the rank test's
    perm = np.arange(m)
    for t, p in enumerate(piv - 1):
        perm[t], perm[p] = perm[p], perm[t]
    # max|M| without an m x n temporary of absolute values
    return perm, _detected_rank(np.diag(lu), max(M.max(), -M.min())), lu


def lupp(M):
    """LU with partial row pivoting of a tall matrix ``M`` (rows >= cols).

    Ties between equal pivot magnitudes break toward the lowest row index.
    Raises :class:`RankDeficient` when the pivot at step ``t`` falls below
    ``RANK_RTOL * max|M|``; the exception carries ``rank_detected = t`` and a
    ``partial`` :class:`PivotedLU` truncated to the detected rank.
    """
    perm, t, lu = _lu_pivots(as_matrix(M, "M"))
    n = lu.shape[1]
    L = np.tril(lu, -1)
    np.fill_diagonal(L, 1.0)
    U = np.triu(lu[:n])
    if t < n:
        partial = PivotedLU(perm=perm, L=L[:, :t], U=U[:t, :t], rank_detected=t)
        raise RankDeficient(f"pivot magnitude {abs(U[t, t]):.3e} at step {t} below tolerance",
                            rank_detected=t, partial=partial)
    return PivotedLU(perm=perm, L=L, U=U, rank_detected=n)


def cpqr(M):
    """Column-pivoted QR of ``M``.

    Rank deficiency is reported through ``rank_detected`` (diagonal entries
    of ``R`` against ``RANK_RTOL * max|M|``) rather than raised; the first
    pivot is the column of maximal 2-norm (lowest index on ties).
    """
    perm, rank, a, tau = _cpqr_pivots(as_matrix(M, "M"))
    r = np.triu(a[:tau.size])  # before dorgqr overwrites a
    return PivotedQR(perm, _orgqr(a, tau), r, rank)


def solve_upper(R, B):
    """``X = R^{-1} B`` for a square upper-triangular ``R`` (its strict lower
    triangle is not read) and a 2-D ``B``, finite float64 arrays checked for
    their shapes only, by LAPACK ``dtrtrs``; ``X`` is Fortran-ordered. The result
    is ``scipy.linalg.solve_triangular(R, B)``, bits included: a Fortran-ordered
    ``R`` is read in place, any other as the lower triangle of ``R.T``. Raises
    :class:`RankDeficient` when a diagonal entry of ``R`` is exactly zero."""
    fortran = R.flags.f_contiguous
    a = R.T if fortran else np.ascontiguousarray(R)  # its buffer, read by Fortran, is R or R.T
    n, k = B.shape
    if a.shape != (n, n):
        raise ShapeMismatch(f"need a square R with {n} rows, got {R.shape}")
    x = np.array(B, order="F")
    if x.size == 0:
        return x
    info = _lapack("dtrtrs")(b"U" if fortran else b"L", b"N" if fortran else b"T", b"N",
                             n, k, a, n, x, n)
    if info > 0:
        raise RankDeficient(f"R is singular: diagonal entry {info - 1} is zero",
                            rank_detected=info - 1)
    return x


def spectral_norm_estimate(apply, apply_adjoint, dim, iters, seed=None):
    """Estimate ||A||_2 from below via power iteration on ``A^T A``.

    ``apply``/``apply_adjoint`` are matvec oracles for ``A`` and ``A^T``,
    ``dim`` the domain dimension of ``A``. The returned value is
    ``||A v||_2`` for a unit vector ``v``, hence never exceeds the true
    spectral norm. Each product is read by :func:`_product`.
    """
    dim = _count(dim, "dim", 0)
    if dim == 0:
        raise ZeroDimension("operator has dimension zero")
    iters = _count(iters, "iters", 1)
    rng = np.random.default_rng(_seed_sequence(seed))
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    est, rows = 0.0, None
    for _ in range(iters):
        w, wn = _product(apply, "apply", v, rows)
        if wn == 0.0:
            return 0.0
        est, rows = wn, w.size
        v, vn = _product(apply_adjoint, "apply_adjoint", w, dim)
        if vn == 0.0:
            return 0.0
        v /= vn
    return float(est)


def _product(oracle, name, x, size):
    """``oracle(x)`` as a finite float64 vector (of length ``size`` unless None)
    and its 2-norm, else :class:`BadShape` or :class:`ShapeMismatch` naming ``name``."""
    out = oracle(x)
    try:
        y = np.asarray(out, dtype=np.float64)
    except (TypeError, ValueError):
        raise BadShape(f"{name} must return a numeric vector, got {type(out).__name__}") from None
    if y.ndim != 1:
        raise BadShape(f"{name} must return a vector, got shape {y.shape}")
    if size is not None and y.size != size:
        raise ShapeMismatch(f"{name} returned length {y.size}, expected {size}")
    if not np.isfinite(y).all():
        raise BadShape(f"{name} returned non-finite entries")
    norm = _norm_fro(y)
    if norm == np.inf:
        raise BadShape(f"the norm of the {name} product exceeds the float range")
    return y, norm
