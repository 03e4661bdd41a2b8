"""Brute-force oracles shared across the test suite.

Everything here is deliberately naive (dense, explicit, O(n^3)) so the
library paths can be checked against an independent computation. The last
two helpers build rows of the documented-error tables for the library's one
size rule and one spectrum rule; :class:`MatvecOnly` serves a dense matrix,
correctly or not, through the matvec-only protocol.
"""

import re

import numpy as np
import pytest

from randskel.errors import BadShape


def projector_onto_rows(X):
    """Orthogonal projector onto the row space of X via explicit pseudoinverse."""
    return np.linalg.pinv(X) @ X


def residual_norms(A, X):
    """(fro, spectral) of A (I - X^+ X) through the explicit pseudoinverse."""
    E = A - A @ projector_onto_rows(X)
    return np.linalg.norm(E), np.linalg.norm(E, 2)


def column_skeleton_residual(A, J):
    """(fro, spectral) of A - C C^+ A via explicit pseudoinverse."""
    C = A[:, J]
    E = A - C @ (np.linalg.pinv(C) @ A)
    return np.linalg.norm(E), np.linalg.norm(E, 2)


def row_skeleton_residual(A, I):
    R = A[I, :]
    E = A - (A @ np.linalg.pinv(R)) @ R
    return np.linalg.norm(E), np.linalg.norm(E, 2)


def cur_residual(A, I, J):
    """(fro, spectral) of A - C C^+ A R^+ R."""
    C = A[:, J]
    R = A[I, :]
    E = A - C @ np.linalg.pinv(C) @ A @ np.linalg.pinv(R) @ R
    return np.linalg.norm(E), np.linalg.norm(E, 2)


def dht_matrix(m):
    """Direct O(m^2) orthonormal discrete Hartley transform."""
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    ang = 2 * np.pi * j * k / m
    return (np.cos(ang) + np.sin(ang)) / np.sqrt(m)


def truncated_svd_error(sigma, k):
    """Optimal rank-k Frobenius error from a spectrum."""
    return float(np.sqrt((sigma[k:] ** 2).sum()))


def random_matrix(rng, m, n, rank=None, spectrum=None):
    """Dense test matrix with optional prescribed rank or spectrum."""
    if spectrum is not None:
        r = len(spectrum)
        U = np.linalg.qr(rng.standard_normal((m, r)))[0]
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        return (U * np.asarray(spectrum)) @ V.T
    if rank is not None:
        return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return rng.standard_normal((m, n))


def srtt_apply_one_shot(op, A):
    """``op.apply(A)`` for an SRTT ``op`` by one ``rfft`` along the rows of the
    whole permuted, sign-flipped ``A``, reading the ``l`` sampled Hartley rows;
    the tiled apply must reproduce it bit for bit."""
    m = op.in_dim
    B = A[op.perm_in] * op.signs[:, None]
    f = np.fft.rfft(B, axis=0)
    folded = op.rows > m // 2
    fk = f[np.where(folded, m - op.rows, op.rows)]
    H = fk.real + np.where(folded, 1.0, -1.0)[:, None] * fk.imag
    return H / np.sqrt(op.out_dim)


def sparse_sign_floyd(l, m, zeta, seed):
    """Row supports (m x zeta) and signs of ``make_sparse_sign(l, m, zeta,
    seed)`` by Floyd's sampler with each draw tested against every row taken
    before it, in O(m zeta^2); the library's sampler must give the same bits."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    supports = np.empty((m, zeta), dtype=np.intp)
    for t, top in enumerate(range(l - zeta, l)):
        draw = rng.integers(0, top + 1, size=m)
        supports[:, t] = np.where((supports[:, :t] == draw[:, None]).any(axis=1), top, draw)
    return supports, rng.integers(0, 2, size=(m, zeta)) * 2.0 - 1.0


def unbiased_sines_svd(sigma, k, l, q, n_trials, seed, side="left"):
    """Per-trial sines (n_trials x k) of the Monte-Carlo angle estimator with
    its own draws, one child ``SeedSequence`` per trial, read off the
    singular values of ``w1 V S^{-1}`` for a full numpy SVD ``w2 = U S V^T``
    of the weighted tail block."""
    sigma = np.asarray(sigma, dtype=np.float64)
    w = (sigma / sigma[0]) ** (2 * q + 1 if side == "left" else 2 * q + 2)
    sines = np.empty((n_trials, k))
    for j, stream in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        omega = np.random.default_rng(stream).standard_normal((sigma.size, l)) / np.sqrt(l)
        _, s, vt = np.linalg.svd(w[k:, None] * omega[k:], full_matrices=False)
        nu = np.linalg.svd((w[:k, None] * omega[:k]) @ vt.T / s, compute_uv=False)
        sines[j] = 1.0 / np.sqrt(1.0 + nu ** 2)
    return sines


def snn_factors_dense(params, retries=100):
    """The dense factors ``X`` (m x r) and ``Y`` (n x r) of an SNN matrix by
    the rule of the first generator: column i of ``X``, then of ``Y``, is
    drawn as ``dim`` mask uniforms below the density, then ``dim`` value
    uniforms, the unmasked entries zeroed, and drawn again while all zero."""
    rng = np.random.default_rng(params.seed)
    factors = np.empty((params.m, params.r)), np.empty((params.n, params.r))
    for i in range(params.r):
        for F in factors:
            for _ in range(retries):
                mask = rng.random(F.shape[0]) < params.density
                F[:, i] = np.where(mask, rng.random(F.shape[0]), 0.0)
                if F[:, i].any():
                    break
            else:
                raise AssertionError("all-zero factor")
    return factors


class MatvecOnly:
    """Matvec-only access to a dense ``A``; ``wrong`` maps a member name to a
    function of its correct result that returns a wrong one."""

    def __init__(self, A, **wrong):
        self.A, self.shape, self.wrong = A, A.shape, wrong

    def _out(self, member, P):
        return self.wrong.get(member, lambda P: P)(P)

    def matmat(self, M):
        return self._out("matmat", self.A @ M)

    def rmatmat(self, M):
        return self._out("rmatmat", self.A.T @ M)


def names(name, rule="an integer"):
    """The :class:`BadShape` of the size rule (or, with ``rule="finite"``, of
    the spectrum rule) whose message opens by naming the parameter ``name``."""
    return pytest.raises(BadShape, match=rf"^{re.escape(name)} must be {rule}")


def size_cases(label, name, call, good, bad):
    """Documented-error rows for the size or count ``name``: ``call`` of
    ``float(good)``, of ``True`` and of the out-of-range ``bad`` each raise the
    :class:`BadShape` that names ``name``."""
    return [pytest.param(lambda value=value: call(value), names(name), id=f"{label}-{tag}")
            for tag, value in (("float", float(good)), ("bool", True), ("range", bad))]
