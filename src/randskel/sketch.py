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
  costs O(mn log m) time and O(pm + ln) memory for panels of p = 64
  columns: each panel of the permuted, sign-flipped input is copied
  transposed into one ``p x m`` buffer, so each column's real FFT runs along
  contiguous memory, and only the ``l`` sampled Hartley coefficients of its
  spectrum are kept. Its dense ``l x m`` form is built directly from the
  Hartley kernel in O(lm).
* Sparse-sign columns carry exactly ``zeta`` entries of ``+-1/sqrt(zeta)``
  so that ``E[||G x||^2] = ||x||^2``. Their rows are drawn by Floyd's
  subset sampler, in O(m zeta) time and O(m zeta) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import _check_finite, _choice, _count, _floats, _instance, _seed_sequence, as_operator
from .errors import ShapeMismatch

#: Input rows copied per step into the transposed SRTT buffer.
_GATHER_ROWS = 256
#: Entries of the bitmap of taken rows with which the sparse-sign sampler
#: looks up repeats, one chunk of ``_SUPPORT_BITMAP // l`` columns at a time.
_SUPPORT_BITMAP = 1 << 16
#: Input columns per SRTT panel: each panel is gathered into one transposed
#: ``_PANEL_COLS x m`` buffer and transformed by one ``rfft``, so neither an
#: ``n x m`` copy of the input nor its full ``(m//2 + 1) x n`` spectrum is held.
_PANEL_COLS = 64


class SketchOperator:
    """Common behavior for all embedding kinds; each kind also provides
    ``to_dense()``, the operator as an ``out_dim x in_dim`` array."""

    out_dim: int
    in_dim: int
    seed: object

    def _apply_dense(self, A):  # pragma: no cover - overridden
        raise NotImplementedError

    def apply(self, A):
        """Return ``G @ A`` for a finite ``A`` with ``in_dim`` rows (or a vector)."""
        arr = _floats(A, "operand", (1, 2))
        out = self._sketch(_check_finite(arr[:, None] if arr.ndim == 1 else arr,
                                         "operand contains non-finite entries"))
        return out[:, 0] if arr.ndim == 1 else out

    def apply_t(self, A):
        """Return ``A @ G.T`` for a finite ``A`` with ``in_dim`` columns: the
        column sketch of :func:`~randskel.dense.as_operator` of ``A``."""
        return as_operator(A).right_sketch(self)

    def _sketch(self, A):
        """``G @ A`` for a 2-D float64 ``A``, checked for its row count only."""
        if A.shape[0] != self.in_dim:
            raise ShapeMismatch(f"operator expects dimension {self.in_dim}, got {A.shape[0]}")
        return self._apply_dense(A)


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
        # a panel of the permuted, sign-flipped input, transposed so that each
        # transform runs along a contiguous row
        buf = np.empty((min(n, _PANEL_COLS), m))
        out = np.empty((self.out_dim, n))
        for j in range(0, n, _PANEL_COLS):
            panel = buf[:min(_PANEL_COLS, n - j)]
            for i in range(0, m, _GATHER_ROWS):
                p = self.perm_in[i:i + _GATHER_ROWS]
                np.multiply(A[p, j:j + _PANEL_COLS].T, self.signs[i:i + _GATHER_ROWS],
                            out=panel[:, i:i + _GATHER_ROWS])
            fk = np.fft.rfft(panel, axis=1)[:, read]
            out[:, j:j + _PANEL_COLS] = (fk.real + flip * fk.imag).T / np.sqrt(self.out_dim)
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


def make_gaussian(l, m, seed=None):
    """Gaussian embedding with i.i.d. N(0, 1/l) entries."""
    m = _count(m, "m", 1)
    l = _count(l, "l", 1, m)
    rng = np.random.default_rng(_seed_sequence(seed))
    mat = rng.standard_normal((l, m)) / np.sqrt(l)
    return GaussianSketch(out_dim=l, in_dim=m, seed=seed, matrix=mat)


def make_srtt(l, m, seed=None):
    """Subsampled randomized trigonometric transform of shape (l, m)."""
    m = _count(m, "m", 1)
    l = _count(l, "l", 1, m)
    rng = np.random.default_rng(_seed_sequence(seed))
    perm_in = rng.permutation(m)
    signs = rng.integers(0, 2, size=m) * 2.0 - 1.0
    rows = rng.choice(m, size=l, replace=False)
    return SrttSketch(out_dim=l, in_dim=m, seed=seed,
                      rows=rows, signs=signs, perm_in=perm_in)


def make_sparse_sign(l, m, zeta=None, seed=None):
    """Sparse-sign embedding; each of the m columns holds ``zeta`` entries
    of ``+-1/sqrt(zeta)`` at distinct random coordinates.

    ``zeta`` defaults to ``min(l, 8)`` and lies in ``[min(2, l), l]``: at
    ``l = 1`` each column holds one sign.
    """
    m = _count(m, "m", 1)
    l = _count(l, "l", 1, m)
    zeta = _count(min(l, 8) if zeta is None else zeta, "zeta", min(2, l), l)
    import scipy.sparse as sp  # scipy is needed for this embedding only

    rng = np.random.default_rng(_seed_sequence(seed))
    # Floyd's subset sampler on all m columns at once: step t draws a row in
    # [0, top] for top = l - zeta + t, and takes row top itself where the draw
    # repeats a row taken before, so every zeta-subset of rows is equally likely
    supports = np.empty((m, zeta), dtype=np.intp)
    for t, top in enumerate(range(l - zeta, l)):
        supports[:, t] = rng.integers(0, top + 1, size=m)
    # a repeat is looked up in a bitmap of the rows taken, one chunk of
    # columns at a time, so the bitmap stays in cache
    chunk = max(1, _SUPPORT_BITMAP // l)
    for i in range(0, m, chunk):
        block = supports[i:i + chunk]
        base = l * np.arange(block.shape[0])
        taken = np.zeros(base.size * l, dtype=bool)
        for t, top in enumerate(range(l - zeta, l)):
            drawn = base + block[:, t]
            repeat = taken[drawn]
            block[repeat, t] = top
            taken[np.where(repeat, base + top, drawn)] = True
    signs = rng.integers(0, 2, size=(m, zeta)) * 2.0 - 1.0
    data = (signs / np.sqrt(zeta)).ravel()
    indices = supports.ravel()
    indptr = zeta * np.arange(m + 1)
    csc = sp.csc_matrix((data, indices, indptr), shape=(l, m))
    return SparseSignSketch(out_dim=l, in_dim=m, seed=seed, zeta=zeta, _csc=csc)


_FACTORIES = {
    "gaussian": make_gaussian,
    "srtt": make_srtt,
    "sparse_sign": make_sparse_sign,
}


def make_embedding(kind, l, m, seed=None):
    """Construct an embedding by kind name."""
    return _FACTORIES[_choice(kind, "kind", tuple(_FACTORIES))](l, m, seed=seed)


def _as_embedding(op, name):
    """``op`` if it is an embedding, else :class:`BadShape` naming ``name``."""
    return _instance(op, SketchOperator, name, "an embedding from make_embedding")


def sketch_rows(op, A):
    """Row sketch ``X = G @ A`` of a dense matrix or a matvec-only operator
    (``shape``, ``matmat`` and ``rmatmat``): the transposed column sketch of
    ``A^T``, ``(A^T G^T)^T``, so only ``rmatmat`` forms it for an operator,
    from the materialized embedding."""
    return as_operator(A).T.right_sketch(_as_embedding(op, "op")).T
