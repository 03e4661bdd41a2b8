"""Synthetic test matrices and CSV ingestion.

Generators are deterministic per seed and return their exact ground-truth
factors where defined, so downstream tests can use them as oracles:

* :func:`gen_snn` / :func:`gen_snn_operator` -- sparse non-negative sums of
  rank-one products with prescribed weights,
* :func:`gen_gaussian_spectrum` -- dense matrix with an exactly known SVD,
* :func:`load_csv` / :func:`save_csv` -- lossless dense-matrix round trip.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dense import (_count, _index_vector, _real, _seed_sequence, _spectrum, as_matrix,
                    qr_checked)
from .errors import (
    BadShape,
    EmptyFactor,
    NonNumericCell,
    RaggedRows,
    ShapeMismatch,
)

#: Default fill fraction of the sparse factor vectors (the source experiments
#: never state one).
SNN_DEFAULT_DENSITY = 0.025


@dataclass(frozen=True)
class SnnParams:
    """Parameters of a sparse non-negative test matrix sum_i s_i x_i y_i^T."""

    m: int
    n: int
    r: int
    s: np.ndarray
    density: float = SNN_DEFAULT_DENSITY
    seed: object = None

    def __post_init__(self):
        r = _count(self.r, "r", 1, min(_count(self.m, "m", 1), _count(self.n, "n", 1)))
        object.__setattr__(self, "s", _spectrum(self.s, "s", r))
        _real(self.density, "density", 0, 1, closed=True)


def snn_weights(a, r1, r):
    """Weight profile a/i for i <= r1, then 1/i up to r."""
    i = np.arange(1, r + 1, dtype=np.float64)
    s = 1.0 / i
    s[:r1] = a / i[:r1]
    return s


def _snn_factors(params, retries=100):
    """The nonzeros of the factors X (m x r) and Y (n x r), column by column:
    for each, a list of r ``(rows, values)`` pairs, the rows as int32. Column
    i of X, then of Y, for each i: an attempt draws ``dim`` mask uniforms,
    then ``dim`` values, and keeps the masked-in nonzero ones; an all-zero
    column is drawn again, at most ``retries`` times."""
    rng = np.random.default_rng(_seed_sequence(params.seed))
    factors = [], []
    for _ in range(params.r):
        for dim, columns in zip((params.m, params.n), factors):
            for _ in range(retries):
                kept = np.flatnonzero(rng.random(dim) < params.density)
                drawn = rng.random(dim)
                kept = kept[drawn[kept] != 0.0]
                if kept.size:
                    break
            else:
                raise EmptyFactor(f"all-zero factor after {retries} retries "
                                  f"(dim={dim}, density={params.density})")
            columns.append((kept.astype(np.int32), drawn[kept]))
    return factors


def _csr_factor(columns, dim):
    """The ``dim x len(columns)`` CSR factor whose column i holds the nonzeros
    ``columns[i]`` of :func:`_snn_factors`. The columns are the factor's CSC
    arrays, and scipy's conversion lists each row's entries in column order,
    as a dense factor's CSR form does; ``columns`` is emptied once they are
    joined, so the lists and the factor are not both held whole."""
    import scipy.sparse as sp  # scipy is needed for this operator only

    indptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum([rows.size for rows, _ in columns], out=indptr[1:])
    csc = sp.csc_matrix((np.concatenate([values for _, values in columns]),
                         np.concatenate([rows for rows, _ in columns]), indptr),
                        shape=(dim, len(columns)))
    columns.clear()
    return csc.tocsr()


def _factor_product(left, s, right, M):
    """``left diag(s) right^T M`` for a finite ``M`` with a row per row of ``right``."""
    M = as_matrix(M, "M")
    if M.shape[0] != right.shape[0]:
        raise ShapeMismatch(f"expected {right.shape[0]} rows, got {M.shape[0]}")
    return left @ (s[:, None] * (right.T @ M))


@dataclass(frozen=True)
class ImplicitSnnOperator:
    """Matvec-only access to an SNN matrix; cost O((m+n) * r * density)."""

    params: SnnParams
    x_factors: object = field(repr=False)  # scipy.sparse.csr_matrix, m x r
    y_factors: object = field(repr=False)  # scipy.sparse.csr_matrix, n x r

    @property
    def shape(self):
        return (self.params.m, self.params.n)

    def matvec(self, v):
        return self.matmat(np.reshape(v, (-1, 1)))[:, 0]

    def matvec_adjoint(self, w):
        return self.rmatmat(np.reshape(w, (-1, 1)))[:, 0]

    def matmat(self, M):
        return _factor_product(self.x_factors, self.params.s, self.y_factors, M)

    def rmatmat(self, M):
        return _factor_product(self.y_factors, self.params.s, self.x_factors, M)

    def columns(self, J):
        J = _index_vector(J, self.params.n, "J")
        Yj = self.y_factors[J].toarray()  # |J| x r
        return self.x_factors @ (self.params.s[:, None] * Yj.T)

    def rows(self, I):
        I = _index_vector(I, self.params.m, "I")
        Xi = self.x_factors[I].toarray()  # |I| x r
        return np.ascontiguousarray((self.y_factors @ (Xi * self.params.s).T).T)

    def to_dense(self):
        X = self.x_factors.toarray()
        Y = self.y_factors.toarray()
        return (X * self.params.s) @ Y.T


def gen_snn(params):
    """Dense SNN matrix; entries are nonnegative by construction."""
    X, Y = np.zeros((params.m, params.r)), np.zeros((params.n, params.r))
    for F, columns in zip((X, Y), _snn_factors(params)):
        for i, (rows, values) in enumerate(columns):
            F[rows, i] = values
    return (X * params.s) @ Y.T


def gen_snn_operator(params):
    """SNN matrix exposed only through (ad)joint products; its sparse factors
    are built from their nonzeros, in O((m + n) r) time and O(nnz) memory."""
    x, y = _snn_factors(params)
    return ImplicitSnnOperator(params, _csr_factor(x, params.m), _csr_factor(y, params.n))


@dataclass(frozen=True)
class SlowDecay:
    """Flat head of length r1, then 1/sqrt(i - r1 + 1)."""

    r1: int = 20


@dataclass(frozen=True)
class FastDecay:
    """Flat head of length r1, then max(0.99**(i - r1), 1e-3)."""

    r1: int = 20


@dataclass(frozen=True)
class StepSpectrum:
    """k copies of sigma1 followed by copies of sigma_k1."""

    k: int
    sigma1: float
    sigma_k1: float = 1.0


@dataclass(frozen=True)
class ExplicitSpectrum:
    values: np.ndarray


def spectrum_values(profile, r):
    """Materialize a spectrum profile at length ``r`` (finite, positive,
    nonincreasing)."""
    r = _count(r, "r", 1)
    i = np.arange(1, r + 1, dtype=np.float64)
    if isinstance(profile, SlowDecay):
        s = np.where(i <= profile.r1, 1.0, 1.0 / np.sqrt(np.maximum(i - profile.r1 + 1, 1.0)))
    elif isinstance(profile, FastDecay):
        s = np.where(i <= profile.r1, 1.0,
                     np.maximum(0.99 ** (i - profile.r1), 1e-3))
    elif isinstance(profile, StepSpectrum):
        s = np.full(r, float(profile.sigma_k1))
        s[:_count(profile.k, "StepSpectrum.k", 0, r)] = profile.sigma1
    elif isinstance(profile, ExplicitSpectrum):
        s = profile.values
    else:
        raise BadShape(f"unknown spectrum profile {profile!r}")
    return _spectrum(s, "spectrum", r)


def gen_gaussian_spectrum(m, n, profile, seed=None, r=None):
    """Dense matrix U diag(sigma) V^T with random orthonormal factors.

    Returns ``(A, U, sigma, V)`` so that exact singular subspaces are
    available downstream.
    """
    m, n = _count(m, "m", 1), _count(n, "n", 1)
    r = min(m, n) if r is None else _count(r, "r", 1, min(m, n))
    sigma = spectrum_values(profile, r)
    rng = np.random.default_rng(_seed_sequence(seed))
    U = qr_checked(rng.standard_normal((m, r)))[0]
    V = qr_checked(rng.standard_normal((n, r)))[0]
    A = (U * sigma) @ V.T
    return A, U, sigma, V


def _parse_cell(text, row, col):
    try:
        return float(text)
    except ValueError:
        raise NonNumericCell(f"cell ({row}, {col}) is not numeric: {text!r}") from None


def _numeric_row(cells):
    try:
        [float(c) for c in cells]
        return True
    except ValueError:
        return False


def load_csv(path):
    """Load a rectangular numeric CSV as a dense matrix.

    A single leading header row is skipped automatically when any of its
    cells fails to parse as a number. The body is parsed by one
    ``np.loadtxt``; only when that fails are the cells parsed one by one
    with ``float``, which also accepts digit separators and quoted cells,
    and otherwise names the offending row or cell. Bytes that do not decode
    raise :class:`NonNumericCell` naming the file.
    """
    try:
        with open(path, newline="") as fh:
            first = next((row for row in csv.reader(fh) if row), None)
            if first is None:
                raise RaggedRows("empty CSV")
            if _numeric_row(first):
                fh.seek(0)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # a header-only file warns of no data
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                if data.size:
                    return data
            except ValueError:
                pass
            fh.seek(0)
            raw = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise NonNumericCell(f"{path} is not text: {exc}") from None
    start = 0 if _numeric_row(raw[0]) else 1
    body = raw[start:]
    if not body:
        raise RaggedRows("CSV holds a header but no data rows")
    width = len(body[0])
    data = np.empty((len(body), width))
    for i, cells in enumerate(body):
        if len(cells) != width:
            raise RaggedRows(
                f"row {i + start} has {len(cells)} cells, expected {width}"
            )
        for j, cell in enumerate(cells):
            data[i, j] = _parse_cell(cell, i + start, j)
    return data


def save_csv(path, A):
    """Write a dense matrix with 17 significant digits (lossless round trip)."""
    A = as_matrix(A, "A")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in A:
            writer.writerow([format(v, ".17g") for v in row])
