"""Dense factorization kernels and the operator adapter.

Thin wrappers over LAPACK (via numpy/scipy; the Householder and pivoted QR
both go through scipy's LAPACK bindings) that add the rank checks,
pivot bookkeeping, and error contracts the rest of the library relies on:

* :func:`qr_ortho` -- orthonormal basis of a full-column-rank tall matrix,
* :func:`orth` -- orthonormal basis truncated at the detected rank,
* :func:`svd_thin` -- economy SVD with a numerical-rank report,
* :func:`lupp` -- LU with partial (row) pivoting on a tall matrix,
* :func:`cpqr` -- QR with greedy column pivoting,
* :func:`spectral_norm_estimate` -- randomized power-method lower estimate.

All routines take 2-D float64 arrays, treat inputs as immutable, and are
pure functions of their arguments (safe to call concurrently). Every rank
decision counts the leading diagonal entries (or singular values) at or
above ``RANK_RTOL`` times a per-routine reference.

The randomized routines also accept a matvec-only operator: an object with
``shape``, ``matmat(M)`` (``A @ M``), ``rmatmat(M)`` (``A.T @ M``),
``columns(J)`` (dense ``A[:, J]``) and ``rows(I)`` (dense ``A[I, :]``), plus
``to_dense()`` where a dense form is needed. :func:`as_operator` wraps either
kind once, at each public entry; it is the only code that tells them apart.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import BadShape, ConvergenceFailure, RankDeficient, ShapeMismatch, ZeroDimension

#: Relative magnitude below which a pivot/diagonal counts as zero.
RANK_RTOL = 1e-12


def as_matrix(a, name="matrix"):
    """Validate ``a`` as a finite 2-D float64 array and return it C-ordered."""
    try:
        arr = np.ascontiguousarray(a, dtype=np.float64)
    except (TypeError, ValueError):
        raise BadShape(f"{name} must be a numeric array, got {type(a).__name__}") from None
    if arr.ndim != 2:
        raise BadShape(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise BadShape(f"{name} contains non-finite entries")
    return arr


class Operator:
    """A dense matrix under the operator protocol, plus its sketches by an
    embedding and a dense form. Build it with :func:`as_operator`."""

    def __init__(self, A):
        self.A, self.shape = A, tuple(A.shape)

    def matmat(self, M):
        return self.A @ M

    def rmatmat(self, M):
        return self.A.T @ M

    def columns(self, J):
        return np.ascontiguousarray(self.A[:, J])

    def rows(self, I):
        return np.ascontiguousarray(self.A[I, :])

    def dense(self):
        return self.A

    def left_sketch(self, emb):
        """``G @ A`` for an embedding ``G`` of the rows."""
        return emb.apply(self.A)

    def right_sketch(self, emb):
        """``A @ G.T`` for an embedding ``G`` of the columns; ``A`` was validated
        once on wrapping, so the embedding's ``apply`` is called on ``A.T``."""
        return np.ascontiguousarray(emb.apply(self.A.T).T)


class _MatvecOperator(Operator):
    """Products and slices are the operator's; sketches materialize the embedding."""

    def matmat(self, M):
        return self.A.matmat(M)

    def rmatmat(self, M):
        return self.A.rmatmat(M)

    def columns(self, J):
        return as_matrix(self.A.columns(J), "operator columns")

    def rows(self, I):
        return as_matrix(self.A.rows(I), "operator rows")

    def dense(self):
        return self.A.to_dense()

    def left_sketch(self, emb):
        return np.ascontiguousarray(self.A.rmatmat(_embedding_matrix(emb, self.shape[0]).T).T)

    def right_sketch(self, emb):
        return self.A.matmat(np.ascontiguousarray(_embedding_matrix(emb, self.shape[1]).T))


def _embedding_matrix(emb, dim):
    if emb.in_dim != dim:
        raise ShapeMismatch(f"embedding expects dimension {emb.in_dim}, got {dim}")
    return emb.to_dense()


def as_operator(A):
    """Wrap ``A`` once as an :class:`Operator`; a dense input is validated by
    :func:`as_matrix` and not copied when already C-ordered float64."""
    if isinstance(A, Operator):
        return A
    if hasattr(A, "rmatmat"):
        return _MatvecOperator(A)
    return Operator(as_matrix(A, "A"))


def _detected_rank(diag, ref):
    """Number of leading ``|d| >= RANK_RTOL * ref`` in ``diag``; 0 when ``ref == 0``."""
    if ref == 0.0:
        return 0
    small = np.flatnonzero(np.abs(diag) < RANK_RTOL * ref)
    return int(small[0]) if small.size else len(diag)


def qr_checked(M, error=RankDeficient, name="M"):
    """Reduced QR ``M = Q R``; raises ``error`` unless ``M`` is numerically
    full column rank (reference ``||M||_F``)."""
    # LAPACK returns Fortran-ordered factors; callers get C order, as from
    # as_matrix, since the layout decides how later BLAS products round
    q, r = sla.qr(M, mode="economic", check_finite=False)
    q, r = np.ascontiguousarray(q), np.ascontiguousarray(r)
    rank = _detected_rank(np.diag(r), np.linalg.norm(M))
    if rank < M.shape[1]:
        raise error(f"{name} has detected rank {rank} of {M.shape[1]} columns")
    return q, r


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
    return qr_checked(M)[0]


def orth(M):
    """Orthonormal basis of span(M), truncated at the detected rank: that of
    :func:`qr_ortho` at full column rank, else the leading :attr:`ThinSVD.rank`
    left singular vectors. Raises :class:`RankDeficient` at rank 0."""
    try:
        return qr_ortho(M)
    except RankDeficient:
        f = svd_thin(M)
    if f.rank == 0:
        raise RankDeficient("input has no numerically nonzero directions")
    return f.U[:, :f.rank]


def svd_thin(M):
    """Economy SVD of ``M`` as a :class:`ThinSVD`."""
    M = as_matrix(M, "M")
    try:
        u, s, vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # LAPACK iteration cap exceeded
        raise ConvergenceFailure(str(exc)) from exc
    return ThinSVD(U=u, sigma=s, V=vt.T)


def lupp(M):
    """LU with partial row pivoting of a tall matrix ``M`` (rows >= cols).

    Ties between equal pivot magnitudes break toward the lowest row index.
    Raises :class:`RankDeficient` when the pivot at step ``t`` falls below
    ``RANK_RTOL * max|M|``; the exception carries ``rank_detected = t`` and a
    ``partial`` :class:`PivotedLU` truncated to the detected rank.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    if m < n:
        raise BadShape(f"need rows >= cols, got {m}x{n}")
    if n == 0:
        return PivotedLU(perm=np.arange(m), L=np.zeros((m, 0)), U=np.zeros((0, 0)),
                         rank_detected=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LinAlgWarning on exact singularity
        lu, piv = sla.lu_factor(M, check_finite=False)
    perm = np.arange(m)
    for t, p in enumerate(piv):
        perm[t], perm[p] = perm[p], perm[t]
    L = np.tril(lu, -1)[:, :n] + np.eye(m, n)
    U = np.triu(lu[:n])

    diag = np.diag(U)
    t = _detected_rank(diag, np.abs(M).max())
    if t < n:
        partial = PivotedLU(perm=perm, L=L[:, :t], U=U[:t, :t], rank_detected=t)
        raise RankDeficient(f"pivot magnitude {abs(diag[t]):.3e} at step {t} below tolerance",
                            rank_detected=t, partial=partial)
    return PivotedLU(perm=perm, L=L, U=U, rank_detected=n)


def cpqr(M):
    """Column-pivoted QR of ``M``.

    Rank deficiency is reported through ``rank_detected`` (diagonal entries
    of ``R`` against ``RANK_RTOL * max|M|``) rather than raised; the first
    pivot is the column of maximal 2-norm (lowest index on ties).
    """
    M = as_matrix(M, "M")
    q, r, p = sla.qr(M, mode="economic", pivoting=True, check_finite=False)
    rank = _detected_rank(np.diag(r), np.abs(M).max() if M.size else 0.0)
    return PivotedQR(perm=p, Q=q, R=r, rank_detected=rank)


def spectral_norm_estimate(apply, apply_adjoint, dim, iters, seed=None):
    """Estimate ||A||_2 from below via power iteration on ``A^T A``.

    ``apply``/``apply_adjoint`` are matvec oracles for ``A`` and ``A^T``,
    ``dim`` the domain dimension of ``A``. The returned value is
    ``||A v||_2`` for a unit vector ``v``, hence never exceeds the true
    spectral norm.
    """
    if dim == 0:
        raise ZeroDimension("operator has dimension zero")
    if iters < 1:
        raise BadShape(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = np.asarray(apply(v), dtype=np.float64)
        wn = np.linalg.norm(w)
        if wn == 0.0:
            return 0.0
        est = wn
        v = np.asarray(apply_adjoint(w), dtype=np.float64)
        vn = np.linalg.norm(v)
        if vn == 0.0:
            return 0.0
        v /= vn
    return float(est)
