"""Brute-force oracles shared across the test suite.

Everything here is deliberately naive (dense, explicit, O(n^3)) so the
library paths can be checked against an independent computation.
"""

import numpy as np


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
