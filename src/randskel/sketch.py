"""Randomized linear embeddings: Gaussian, subsampled trigonometric, sparse sign.

Each operator maps R^m -> R^l (l <= m) and is constructed deterministically
from a seed. Operators are immutable after construction; ``apply`` compresses
the leading dimension of a matrix (``G @ A``) and ``apply_t`` the trailing
one (``A @ G.T``), so the same operator sketches rows or columns.

Scaling conventions:

* Gaussian entries are i.i.d. normal with variance ``1/l``.
* The trigonometric operator composes a random permutation, a random sign
  flip, an orthonormal discrete Hartley transform, and a uniform row
  subsample, scaled by ``sqrt(m/l)``.
* Sparse-sign columns carry exactly ``zeta`` entries of ``+-1/sqrt(zeta)``
  so that ``E[||G x||^2] = ||x||^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dense import as_matrix, as_operator
from .errors import BadShape, ShapeMismatch


def _as_operand(A):
    """Accept a vector or matrix; return (2-D view, was_vector flag)."""
    arr = np.asarray(A, dtype=np.float64)
    if arr.ndim == 1:
        return arr[:, None], True
    if arr.ndim == 2:
        return arr, False
    raise BadShape(f"operand must be 1-D or 2-D, got ndim={arr.ndim}")


class SketchOperator:
    """Common behavior for all embedding kinds."""

    out_dim: int
    in_dim: int
    seed: object

    def _apply_dense(self, A):  # pragma: no cover - overridden
        raise NotImplementedError

    def apply(self, A):
        """Return ``G @ A`` for ``A`` with ``in_dim`` rows (or a vector)."""
        arr, was_vec = _as_operand(A)
        if arr.shape[0] != self.in_dim:
            raise ShapeMismatch(
                f"operator expects {self.in_dim} rows, got {arr.shape[0]}"
            )
        out = self._apply_dense(arr)
        return out[:, 0] if was_vec else out

    def apply_t(self, A):
        """Return ``A @ G.T`` for ``A`` with ``in_dim`` columns."""
        arr = as_matrix(A, "A")
        if arr.shape[1] != self.in_dim:
            raise ShapeMismatch(
                f"operator expects {self.in_dim} columns, got {arr.shape[1]}"
            )
        return np.ascontiguousarray(self.apply(arr.T).T)

    def to_dense(self):
        """Materialize the operator as an ``out_dim x in_dim`` array."""
        return self._apply_dense(np.eye(self.in_dim))


@dataclass(frozen=True)
class GaussianSketch(SketchOperator):
    out_dim: int
    in_dim: int
    seed: object
    matrix: np.ndarray = field(repr=False)

    kind = "gaussian"

    def _apply_dense(self, A):
        return self.matrix @ A

    def to_dense(self):
        return self.matrix


@dataclass(frozen=True)
class SrttSketch(SketchOperator):
    """sqrt(m/l) * (row subsample) o (Hartley transform) o (signs) o (permutation)."""

    out_dim: int
    in_dim: int
    seed: object
    rows: np.ndarray = field(repr=False)   # subsampled output coordinates
    signs: np.ndarray = field(repr=False)  # +-1, applied after the permutation
    perm_in: np.ndarray = field(repr=False)

    kind = "srtt"

    def _apply_dense(self, A):
        m = self.in_dim
        B = self.signs[:, None] * A[self.perm_in]
        f = np.fft.fft(B, axis=0)
        H = (f.real - f.imag) / np.sqrt(m)
        return np.sqrt(m / self.out_dim) * H[self.rows]


@dataclass(frozen=True)
class SparseSignSketch(SketchOperator):
    out_dim: int
    in_dim: int
    seed: object
    zeta: int
    _csc: sp.csc_matrix = field(repr=False)

    kind = "sparse_sign"

    def _apply_dense(self, A):
        return np.asarray(self._csc @ A)

    def to_dense(self):
        return self._csc.toarray()


def _check_dims(l, m):
    if l < 1 or l > m:
        raise BadShape(f"need 1 <= l <= m, got l={l}, m={m}")


def make_gaussian(l, m, seed=None):
    """Gaussian embedding with i.i.d. N(0, 1/l) entries."""
    _check_dims(l, m)
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((l, m)) / np.sqrt(l)
    return GaussianSketch(out_dim=l, in_dim=m, seed=seed, matrix=mat)


def make_srtt(l, m, seed=None):
    """Subsampled randomized trigonometric transform of shape (l, m)."""
    _check_dims(l, m)
    rng = np.random.default_rng(seed)
    perm_in = rng.permutation(m)
    signs = rng.integers(0, 2, size=m) * 2.0 - 1.0
    rows = rng.choice(m, size=l, replace=False)
    return SrttSketch(out_dim=l, in_dim=m, seed=seed,
                      rows=rows, signs=signs, perm_in=perm_in)


def make_sparse_sign(l, m, zeta=None, seed=None):
    """Sparse-sign embedding; each of the m columns holds ``zeta`` entries
    of ``+-1/sqrt(zeta)`` at distinct random coordinates.

    ``zeta`` defaults to ``min(l, 8)``.
    """
    _check_dims(l, m)
    if zeta is None:
        zeta = min(l, 8)
    if zeta < 2 or zeta > l:
        raise BadShape(f"need 2 <= zeta <= l, got zeta={zeta}, l={l}")
    rng = np.random.default_rng(seed)
    base = np.broadcast_to(np.arange(l), (m, l)).copy()
    supports = rng.permuted(base, axis=1)[:, :zeta]
    signs = rng.integers(0, 2, size=(m, zeta)) * 2.0 - 1.0
    data = (signs / np.sqrt(zeta)).ravel()
    indices = supports.ravel()
    indptr = zeta * np.arange(m + 1)
    csc = sp.csc_matrix((data, indices, indptr), shape=(l, m))
    return SparseSignSketch(out_dim=l, in_dim=m, seed=seed, zeta=int(zeta), _csc=csc)


_FACTORIES = {
    "gaussian": make_gaussian,
    "srtt": make_srtt,
    "sparse_sign": make_sparse_sign,
}


def make_embedding(kind, l, m, seed=None):
    """Construct an embedding by kind name."""
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise BadShape(f"unknown embedding kind {kind!r}") from None
    return factory(l, m, seed=seed)


def sketch_rows(op, A):
    """Row sketch ``X = G @ A`` of a dense matrix or a matvec-only operator
    (which only needs ``rmatmat`` here; the embedding is then materialized)."""
    return as_operator(A).left_sketch(op)
