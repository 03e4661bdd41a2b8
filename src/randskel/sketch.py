"""Randomized linear embeddings: Gaussian, subsampled trigonometric, sparse sign.

Each operator maps R^m -> R^l (l <= m) and is constructed deterministically
from a seed. Operators are immutable after construction; ``apply`` compresses
the leading dimension of a matrix (``G @ A``) and ``apply_t`` the trailing
one (``A @ G.T``), so the same operator sketches rows or columns.

Scaling conventions:

* Gaussian entries are i.i.d. normal with variance ``1/l``.
* The trigonometric operator composes a random permutation, a random sign
  flip, an orthonormal discrete Hartley transform, and a uniform row
  subsample, scaled by ``sqrt(m/l)``. Applying it to an ``m x n`` matrix
  costs O(mn log m) time and one ``n x m`` real buffer: the permuted,
  sign-flipped input is copied there transposed, so each column's real FFT
  runs along contiguous memory; the spectra are taken a few columns at a
  time and only the ``l`` sampled Hartley coefficients are kept. Its dense
  ``l x m`` form is built directly from the Hartley kernel in O(lm).
* Sparse-sign columns carry exactly ``zeta`` entries of ``+-1/sqrt(zeta)``
  so that ``E[||G x||^2] = ||x||^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import as_matrix, as_operator
from .errors import BadShape, ShapeMismatch

#: Input rows copied per step into the transposed SRTT buffer.
_GATHER_ROWS = 256
#: Transforms taken per ``rfft`` call: their spectra are the only complex
#: temporaries, so the full ``(m//2 + 1) x n`` spectrum is never held.
_FFT_ROWS = 16


def _as_operand(A):
    """Accept a vector or matrix; return (2-D view, was_vector flag)."""
    arr = np.asarray(A, dtype=np.float64)
    if arr.ndim == 1:
        return arr[:, None], True
    if arr.ndim == 2:
        return arr, False
    raise BadShape(f"operand must be 1-D or 2-D, got ndim={arr.ndim}")


class SketchOperator:
    """Common behavior for all embedding kinds; each kind also provides
    ``to_dense()``, the operator as an ``out_dim x in_dim`` array."""

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
        # Hartley coefficient k is Re F_k - Im F_k of the DFT F; a real input
        # has F_k = conj(F_{m-k}), so rows above m/2 read the rfft at m - k
        # with the sign of the imaginary part flipped.
        m, n = A.shape
        folded = self.rows > m // 2
        read = np.where(folded, m - self.rows, self.rows)
        flip = np.where(folded, 1.0, -1.0)
        # the permuted, sign-flipped input, transposed so that each transform
        # runs along a contiguous row
        B = np.empty((n, m))
        for i in range(0, m, _GATHER_ROWS):
            p = self.perm_in[i:i + _GATHER_ROWS]
            np.multiply(A[p].T, self.signs[i:i + _GATHER_ROWS], out=B[:, i:i + _GATHER_ROWS])
        out = np.empty((self.out_dim, n))
        for j in range(0, n, _FFT_ROWS):
            fk = np.fft.rfft(B[j:j + _FFT_ROWS], axis=1)[:, read]
            out[:, j:j + _FFT_ROWS] = (fk.real + flip * fk.imag).T / np.sqrt(self.out_dim)
        return out

    def to_dense(self):
        m = self.in_dim
        t = 2 * np.pi * np.arange(m) / m
        cas = (np.cos(t) + np.sin(t)) / np.sqrt(self.out_dim)
        # row k, column j of the transform is cas(2*pi*k*j/m); int64 is exact
        # for the product while m**2 < 2**63
        kj = (self.rows[:, None].astype(np.int64) * np.arange(m, dtype=np.int64)) % m
        out = np.empty((self.out_dim, m))
        out[:, self.perm_in] = cas[kj] * self.signs
        return out


@dataclass(frozen=True)
class SparseSignSketch(SketchOperator):
    out_dim: int
    in_dim: int
    seed: object
    zeta: int
    _csc: object = field(repr=False)  # scipy.sparse.csc_matrix, l x m

    kind = "sparse_sign"

    def _apply_dense(self, A):
        return np.asarray(self._csc @ A)

    def to_dense(self):
        return self._csc.toarray()


def _as_seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed if seed is not None else 0)


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
    import scipy.sparse as sp  # scipy is needed for this embedding only

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
