"""Randomized range approximation and randomized SVD.

The rank-l approximation pipeline: sketch the column space with a seeded
embedding, optionally sharpen the spectrum with power iterations (plain or
re-orthonormalized), then recover an SVD-form approximation from the small
projected matrix. The sketching routines accept a dense matrix or a
matvec-only operator (see :mod:`randskel.dense` for the protocol);
:func:`rangefinder_error` needs a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import (_count, _in_range, _norm_fro, _project_out, _svd, as_matrix, as_operator, orth,
                    qr_checked, spectral_norm)
from .errors import BadShape, ShapeMismatch
from .sketch import _as_embedding, make_embedding


@dataclass(frozen=True)
class LowRankSVD:
    """Rank-l approximation ``A ~= U_hat @ diag(sigma_hat) @ V_hat.T``."""

    U_hat: np.ndarray
    sigma_hat: np.ndarray
    V_hat: np.ndarray
    l: int
    q: int
    seed: object
    embedding_kind: str = "gaussian"

    def approx(self):
        """Materialize the rank-l approximation."""
        return (self.U_hat * self.sigma_hat) @ self.V_hat.T


def _power(A, omega, q, step, basis=lambda Y: Y):
    """``basis`` of ``(A A^T)^q A Omega^T``, taken after the sketch and after
    every product: the one power iteration, which the pivoting selectors run
    on ``A^T`` for their row sketch. ``q`` is read first, then ``A`` and
    ``omega``; a product that leaves the float range raises
    :class:`BadShape` naming ``step``."""
    q = _count(q, "q", 0)
    A = as_operator(A)
    Y = basis(_in_range(step, A.right_sketch, _as_embedding(omega, "omega")))
    for _ in range(q):
        Y = basis(_in_range(step, A.matmat, basis(_in_range(step, A.rmatmat, Y))))
    return Y


def power_iter_plain(A, omega, q):
    """(A A^T)^q A Omega^T by repeated multiplication.

    Exact per the defining product, but numerically unstable for q > 1 on
    ill-conditioned inputs; prefer :func:`power_iter_stable` there.
    """
    return _power(A, omega, q, "the plain power iteration (A A^T)^q A Omega^T")


def power_iter_stable(A, omega, q):
    """Orthonormal basis of (A A^T)^q A Omega^T with per-step re-orthonormalization.

    Orthonormalizes after every half iteration with :func:`~randskel.dense.orth`,
    so the basis stays orthonormal even where the plain product would underflow
    its trailing directions. A half step that loses rank is truncated at the
    detected rank instead of raising, so the basis may have fewer than l
    columns; only an input with no nonzero direction raises RankDeficient.
    """
    return _power(A, omega, q, "a product of the stable power iteration", orth)


#: Default oversampling margin when only a target rank is given.
DEFAULT_OVERSAMPLING = 10


def randomized_svd(A, l=None, q=0, seed=None, embedding_kind="gaussian",
                   target_rank=None):
    """Rank-l randomized SVD with q re-orthonormalized power iterations.

    Callers may pass the sample size ``l`` directly or a ``target_rank`` k,
    in which case ``l = min(k + 10, m, n)``; either must lie in
    ``[1, min(m, n)]``. The column basis comes from
    :func:`power_iter_stable`; the small matrix ``A^T Q`` is then decomposed
    exactly, which hands the right factor half a power iteration more
    accuracy than the left one. When the input's rank falls below l the
    factors truncate to the detected rank instead of failing (the range is
    then captured exactly).
    """
    A = as_operator(A)
    m, n = A.shape
    if l is None:
        if target_rank is None:
            raise BadShape("pass either l or target_rank")
        l = min(_count(target_rank, "target_rank", 1, min(m, n)) + DEFAULT_OVERSAMPLING, m, n)
    l = _count(l, "l", 1, min(m, n))
    Q = power_iter_stable(A, make_embedding(embedding_kind, l, n, seed=seed), q)
    f = _svd(_in_range("A^T Q", A.rmatmat, Q))  # = f.U diag(f.sigma) f.V^T, freed before U_hat
    U_hat = Q @ f.V
    return LowRankSVD(U_hat=U_hat, sigma_hat=f.sigma, V_hat=f.U,
                      l=U_hat.shape[1], q=q, seed=seed,
                      embedding_kind=embedding_kind)


def rangefinder_error(A, X):
    """Frobenius and spectral norm of ``A (I - X^+ X)`` for a row approximator X.

    Computed by projecting onto an orthonormal basis of the rows of X (never
    through an explicit pseudoinverse). Raises :class:`RankDeficient` when X
    loses row rank.
    """
    A, X = as_matrix(A, "A"), as_matrix(X, "X")
    if X.shape[1] != A.shape[1]:
        raise ShapeMismatch(
            f"X has {X.shape[1]} columns, A has {A.shape[1]}"
        )
    E = _project_out(A, qr_checked(X.T, name="row approximator")[0], "right")
    return _norm_fro(E), spectral_norm(E)
