"""Skeleton selection and natural-basis decompositions.

Column/row subsets are picked by pivoting on a randomized row-space
approximator (partial-pivoted LU or column-pivoted QR on a sketch, pivoting
on approximated singular vectors, or leverage-score sampling), optionally in
a single streaming pass. Builders assemble the interpolative and CUR
decompositions from the selected indices, always through orthonormal bases
rather than explicit pseudoinverses.

Every pivoting-based result carries the row approximator ``X`` it pivoted
on plus the a-posteriori factor ``eta = sqrt(1 + ||X1^+ X2||_2^2)``, which
multiplies the range-approximation error into a deterministic bound on the
skeleton error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import (_child_seeds, _choice, _count, _cpqr_pivots, _in_range, _index_vector,
                    _instance, _lu_pivots, as_matrix, as_operator, lstsq_full_rank, qr_checked,
                    spectral_norm)
from .errors import (
    BadShape,
    DegenerateDistribution,
    ShapeMismatch,
    SingularPivotBlock,
    SingularSkeleton,
    StreamExhausted,
)
from .rangefinder import _power, randomized_svd
from .sketch import make_embedding

#: Column width of the internal panels of the streamed sketches (:func:`_panels`).
#: Re-chunking to fixed panels makes results bitwise independent of how the
#: caller splits the stream.
_STREAM_PANEL = 64


@dataclass(frozen=True)
class SkeletonResult:
    """Selected skeleton indices plus the evidence behind them."""

    J_s: np.ndarray
    I_s: np.ndarray | None
    method: str
    eta_column: float | None
    eta_row: float | None
    seed: object
    X: np.ndarray | None = field(default=None, repr=False)
    Y: np.ndarray | None = field(default=None, repr=False)
    rank_detected: int | None = None


@dataclass(frozen=True)
class ColumnID:
    """A ~= A[:, J_s] @ coeffs with coeffs[:, J_s] = I."""

    J_s: np.ndarray
    coeffs: np.ndarray  # l x n

    def reconstruct(self, A):
        A = as_matrix(A, "A")
        if A.shape[1] != self.coeffs.shape[1]:
            raise ShapeMismatch(f"A has {A.shape[1]} columns, the column ID {self.coeffs.shape[1]}")
        return A[:, _index_vector(self.J_s, A.shape[1], "J_s")] @ self.coeffs


@dataclass(frozen=True)
class RowID:
    """A ~= coeffs @ A[I_s, :] with coeffs[I_s, :] = I."""

    I_s: np.ndarray
    coeffs: np.ndarray  # m x l

    def reconstruct(self, A):
        A = as_matrix(A, "A")
        if A.shape[0] != self.coeffs.shape[0]:
            raise ShapeMismatch(f"A has {A.shape[0]} rows, the row ID {self.coeffs.shape[0]}")
        return self.coeffs @ A[_index_vector(self.I_s, A.shape[0], "I_s"), :]


@dataclass(frozen=True)
class TwoSidedID:
    """A ~= left @ S @ right, stored without inverting the skeleton block."""

    I_s: np.ndarray
    J_s: np.ndarray
    left: np.ndarray   # m x l, equals C S^{-1}
    S: np.ndarray      # l x l skeleton block A[I_s, J_s]
    right: np.ndarray  # l x n, equals C^+ A

    def reconstruct(self):
        return self.left @ (self.S @ self.right)


@dataclass(frozen=True)
class CurFactors:
    """Skeleton decomposition assembled through orthonormal bases.

    ``C`` and ``R`` are the actual skeleton columns/rows; the reconstruction
    is ``Q_C @ U_mid @ Q_R.T`` with ``U_mid = Q_C.T A Q_R``.
    """

    C: np.ndarray
    U_mid: np.ndarray
    R: np.ndarray
    Q_C: np.ndarray = field(repr=False)
    Q_R: np.ndarray = field(repr=False)

    def reconstruct(self):
        return self.Q_C @ self.U_mid @ self.Q_R.T


def posterior_eta(X, J_s):
    """sqrt(1 + ||X1^+ X2||_2^2) for X1 = X[:, J_s], X2 the other columns.

    This is the computable multiplier relating the skeleton error to the
    range-approximation error of X; cost O(l^2 (n - l)) plus one small SVD.
    An empty ``X1`` or ``X2`` gives 1.0: ``X1^+ X2`` is then an empty matrix.
    """
    X = as_matrix(X, "X")
    return _eta(X, _index_vector(J_s, X.shape[1], "J_s"))


def _eta(X, J_s):
    """:func:`posterior_eta` of a finite ``X`` and valid ``J_s``, not checked."""
    mask = np.ones(X.shape[1], dtype=bool)
    mask[J_s] = False
    Z = lstsq_full_rank(X[:, J_s], X[:, mask], SingularPivotBlock, "pivot block")
    return float(np.sqrt(1.0 + spectral_norm(Z) ** 2))


def _column_pivots(pivot, M, count):
    """First ``count`` column pivots of M, truncated to the detected rank, by
    partial-pivoted LU of M^T (``pivot="lupp"``) or column-pivoted QR; neither
    forms its factors."""
    perm, rank, *_ = _lu_pivots(M.T) if pivot == "lupp" else _cpqr_pivots(M)
    return perm[:min(count, rank)], rank


def _skeleton(A, X, l, pivot, method, seed):
    """Column pivots of the row approximator ``X``, then row pivots of the
    chosen columns of ``A``, with ``eta`` of the column skeleton."""
    J_s, rank = _column_pivots(pivot, X, l)
    I_s, _ = _column_pivots(pivot, A.columns(J_s).T, J_s.size)
    return SkeletonResult(J_s=J_s, I_s=I_s, method=method, eta_column=_eta(X, J_s),
                          eta_row=None, seed=seed, X=X, rank_detected=min(rank, l))


def _select_on_sketch(A, l, q, seed, embedding, pivot):
    """:func:`_skeleton` on the row sketch, sharpened by ``q`` power iterations."""
    q = _count(q, "q", 0, 1)
    A = as_operator(A)
    l = _count(l, "l", 1, min(A.shape))
    gamma = make_embedding(embedding, l, A.shape[0], seed=seed)
    X = _power(A.T, gamma, q, "the plain power iteration").T  # Gamma (A A^T)^q A
    method = f"rand-{pivot}-1piter" if q == 1 else f"rand-{pivot}"
    return _skeleton(A, X, l, pivot, method, seed)


def select_columns_lupp(A, l, q=0, seed=None, embedding="gaussian"):
    """Column (and row) skeletons by partial-pivoted LU on a row sketch.

    ``q`` in {0, 1}: the 1-iteration variant sharpens the sketch with one
    plain (unorthogonalized) power iteration before pivoting; ``l`` lies in
    ``[1, min(m, n)]``, as in every selector.
    """
    return _select_on_sketch(A, l, q, seed, embedding, "lupp")


def select_columns_cpqr(A, l, q=0, seed=None, embedding="gaussian"):
    """Column (and row) skeletons by column-pivoted QR on a row sketch."""
    return _select_on_sketch(A, l, q, seed, embedding, "cpqr")


def select_deim(A, l, q=0, seed=None, embedding="gaussian"):
    """Skeletons by partial-pivoted LU on approximated right singular vectors."""
    A = as_operator(A)
    lr = randomized_svd(A, l, q=q, seed=seed, embedding_kind=embedding)
    return _skeleton(A, np.ascontiguousarray(lr.V_hat.T), l, "lupp", "rsvd-deim", seed)


def _sample_without_replacement(rng, scores, count):
    scores = scores.copy()
    if scores.max(initial=0.0) < 1e-15:
        raise DegenerateDistribution("all sampling scores below 1e-15")
    picked = np.empty(count, dtype=np.intp)
    for t in range(count):
        total = scores.sum()
        if total <= 0:
            raise DegenerateDistribution("sampling scores exhausted")
        j = rng.choice(scores.size, p=scores / total)
        picked[t] = j
        scores[j] = 0.0
    return picked


def select_leverage(A, k, l, seed=None):
    """Skeletons sampled from approximated leverage scores.

    Scores come from a rank-k randomized SVD: squared row norms of the
    approximated singular-vector factors, normalized by k. ``l`` distinct
    columns (and rows) are drawn sequentially without replacement; ``l`` lies
    in ``[1, min(m, n)]`` and ``k`` in ``[1, l]``.
    """
    A = as_operator(A)
    l = _count(l, "l", 1, min(A.shape))
    k = _count(k, "k", 1, l)
    s_svd, s_col, s_row = _child_seeds(seed, 3)
    lr = randomized_svd(A, k, q=0, seed=s_svd)
    col_scores = (lr.V_hat ** 2).sum(axis=1) / k
    row_scores = (lr.U_hat ** 2).sum(axis=1) / k
    J_s = _sample_without_replacement(np.random.default_rng(s_col), col_scores, l)
    I_s = _sample_without_replacement(np.random.default_rng(s_row), row_scores, l)
    return SkeletonResult(J_s=J_s, I_s=I_s, method="rsvd-ls", eta_column=None,
                          eta_row=None, seed=seed, X=None, rank_detected=None)


def _panels(blocks, m, n):
    """The column stream ``blocks`` re-chunked into ``_STREAM_PANEL``-wide
    panels of one reused buffer (the last may be narrower), each with the slice
    of the columns it holds. The sketches are updated once per panel, so the
    arithmetic (and hence the bit pattern of the result) depends only on the
    absolute column positions, not on where the caller's blocks begin and end."""
    buf, end, width = np.empty((m, _STREAM_PANEL)), 0, 0  # columns received, in buf
    for block in blocks:
        block = as_matrix(block, "block")
        if block.shape[0] != m:
            raise ShapeMismatch(f"block has {block.shape[0]} rows, stream declared {m}")
        if end + block.shape[1] > n:
            raise ShapeMismatch("stream delivered more columns than declared")
        j = 0
        while j < block.shape[1]:
            take = min(_STREAM_PANEL - width, block.shape[1] - j)
            buf[:, width:width + take] = block[:, j:j + take]
            j, width, end = j + take, width + take, end + take
            if width == _STREAM_PANEL:
                yield slice(end - width, end), buf
                width = 0
    if width:
        yield slice(end - width, end), buf[:, :width]
    if end != n:
        raise StreamExhausted(f"stream ended after {end} of {n} columns")


def select_streaming(blocks, l, seed=None, pivot="lupp", *, m, n):
    """One-pass skeleton selection from a column-block iterator.

    Accumulates a row sketch ``X = Gamma A`` and a column sketch
    ``Y = A Omega^T`` while touching each block exactly once, then pivots X
    column-wise for ``J_s`` and Y row-wise for ``I_s``. The input matrix is
    never stored.
    """
    pivot = _choice(pivot, "pivot", ("lupp", "cpqr"))
    m, n = _count(m, "m", 1), _count(n, "n", 1)
    l = _count(l, "l", 1, min(m, n))
    try:
        blocks = iter(blocks)
    except TypeError:
        raise BadShape("blocks must be an iterable of column blocks, "
                       f"got {type(blocks).__name__}") from None
    # the row embedding matches select_columns_lupp's draw for the same seed,
    # so a single-block stream reproduces its column pivots exactly
    gamma = make_embedding("gaussian", l, m, seed=seed)
    omega = make_embedding("gaussian", l, n, seed=_child_seeds(seed, 1)[0])
    G, W = gamma.to_dense(), omega.to_dense()

    def sketches():
        X, Y = np.zeros((l, n)), np.zeros((m, l))
        for cols, panel in _panels(blocks, m, n):
            X[:, cols] = G @ panel
            Y += panel @ W[:, cols].T
        return X, Y

    X, Y = _in_range("a streamed sketch", sketches)
    J_s, rank = _column_pivots(pivot, X, l)
    I_s, _ = _column_pivots(pivot, Y.T, l)
    return SkeletonResult(J_s=J_s, I_s=I_s, method=f"streaming-{pivot}",
                          eta_column=_eta(X, J_s), eta_row=_eta(np.ascontiguousarray(Y.T), I_s),
                          seed=seed, X=X, Y=Y, rank_detected=min(rank, l))


def streaming_interp_coeffs(result):
    """Estimate the column-ID coefficients from the row sketch alone.

    Returns ``X1^+ X`` where ``X1 = X[:, J_s]`` -- an approximation of the
    exact coefficients that avoids a second pass over the input. ``X1`` has
    full column rank: the pivots are cut at the detected rank.
    """
    if _instance(result, SkeletonResult, "result", "a SkeletonResult").X is None:
        raise BadShape("result carries no row sketch")
    X = as_matrix(result.X, "X")
    J_s = _index_vector(result.J_s, X.shape[1], "J_s")
    return lstsq_full_rank(X[:, J_s], X, SingularPivotBlock, "pivot block")


def estimate_cur_from_skeletons(C, S, R, *, allow_unstable=False):
    """One-pass middle-factor estimate ``C S^{-1} R``.

    Disabled by default: inverting the skeleton block trades away both
    accuracy and stability, so callers opt in with a bool ``True`` only.
    ``S`` must be square, fit ``C`` and ``R``, and be numerically nonsingular.
    """
    if not (isinstance(allow_unstable, (bool, np.bool_)) and allow_unstable):
        raise BadShape("C S^{-1} R estimation is numerically unstable; pass "
                       f"allow_unstable=True to opt in, got allow_unstable={allow_unstable!r}")
    C, S, R = as_matrix(C, "C"), as_matrix(S, "S"), as_matrix(R, "R")
    l = S.shape[0]
    if S.shape != (l, l) or C.shape[1] != l or R.shape[0] != l:
        raise ShapeMismatch(f"need C m x l, S l x l, R l x n; got {C.shape}, {S.shape}, {R.shape}")
    return C @ lstsq_full_rank(S, R, SingularSkeleton, "skeleton block")


def build_column_id(A, J_s):
    """Column interpolative decomposition A ~= C (C^+ A)."""
    A = as_matrix(A, "A")
    J_s = _index_vector(J_s, A.shape[1], "J_s")
    C = A[:, J_s]
    coeffs = lstsq_full_rank(C, A, SingularSkeleton, "skeleton")
    return ColumnID(J_s=J_s, coeffs=coeffs)


def build_row_id(A, I_s):
    """Row interpolative decomposition A ~= (A R^+) R."""
    A = as_matrix(A, "A")
    I_s = _index_vector(I_s, A.shape[0], "I_s")
    R = A[I_s, :]
    coeffs = lstsq_full_rank(R.T, A.T, SingularSkeleton, "skeleton").T
    return RowID(I_s=I_s, coeffs=coeffs)


def build_two_sided_id(A, I_s, J_s):
    """Two-sided interpolative decomposition (C S^{-1}) S (C^+ A).

    Equals the column ID in exact arithmetic; both outer factors are
    evaluated by solving against S and C, never by inversion.
    """
    A = as_matrix(A, "A")
    I_s = _index_vector(I_s, A.shape[0], "I_s")
    J_s = _index_vector(J_s, A.shape[1], "J_s")
    if I_s.size != J_s.size:
        raise ShapeMismatch("two-sided skeleton needs |I_s| = |J_s|")
    C = A[:, J_s]
    S = C[I_s, :]
    right = lstsq_full_rank(C, A, SingularSkeleton, "skeleton")
    left = lstsq_full_rank(S.T, C.T, SingularSkeleton, "skeleton block").T
    return TwoSidedID(I_s=I_s, J_s=J_s, left=left, S=S, right=right)


def build_cur_stable(A, I_s, J_s):
    """CUR decomposition assembled through orthonormal skeleton bases.

    ``U_mid = Q_C.T A Q_R`` is formed in the order of fewer multiply-adds
    (:meth:`~randskel.dense.Operator.sandwich`): ``Q_C.T @ (A @ Q_R)`` on a
    square input, ``(Q_C.T @ A) @ Q_R`` (for a matvec-only operator,
    ``rmatmat(Q_C).T @ Q_R``) on a tall one with skeletons of one size.
    """
    A = as_operator(A)
    I_s = _index_vector(I_s, A.shape[0], "I_s")
    J_s = _index_vector(J_s, A.shape[1], "J_s")
    C = A.columns(J_s)
    R = A.rows(I_s)
    Q_C = qr_checked(C, SingularSkeleton, "skeleton columns")[0]
    Q_R = qr_checked(R.T, SingularSkeleton, "skeleton rows")[0]
    U_mid = _in_range("U_mid = Q_C^T A Q_R", A.sandwich, Q_C, Q_R)
    return CurFactors(C=C, U_mid=U_mid, R=R, Q_C=Q_C, Q_R=Q_R)
