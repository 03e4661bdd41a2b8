"""Canonical angles between subspaces: exact values, prior probabilistic
bounds, unbiased Monte-Carlo estimates, posterior residual-based bounds, and
the oversampling-versus-iterations balance function.

Angles are always reported as sines in [0, 1], sorted nondecreasing (the
smallest angle first). The prior machinery needs only a spectrum; the
posterior machinery needs the computed low-rank factors and residuals.

Cost of the posterior families: both read the singular values of the two
m x n residuals ``(I - U_hat U_hat^T) A`` and ``A (I - V_hat V_hat^T)``, so a
(A, rank-l SVD) pair costs two values-only m x n SVDs, shared by every
spectrum and both families when measured once by :func:`posterior_residuals`.
The rest is O(mnl) products, norms of m x l blocks and arithmetic on the
spectrum. :func:`posterior_simple` and :func:`posterior_gap` each measure
afresh, at one such SVD per call. A trial of :func:`unbiased_estimates` costs
one QR of an (r-k) x l weighted tail block, a triangular solve and a
values-only k x l SVD; its rank test is the library's one rule, each |R_ii|
against ``RANK_RTOL * ||w2||_F`` (:func:`randskel.dense.qr_checked`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import (as_matrix, lstsq_full_rank, qr_checked, qr_ortho, solve_upper, spectral_norm,
                    spectral_norm_estimate, svdvals)
from .errors import (
    BadShape,
    DistortionOutOfRange,
    EmptyTail,
    InadmissibleQ,
    ShapeMismatch,
    SingularOmega1,
    TailRankDeficient,
)
from .rangefinder import LowRankSVD
from .sketch import _as_seed_sequence


def _check_side(side):
    if side not in ("left", "right"):
        raise BadShape(f"side must be 'left' or 'right', got {side!r}")


def _exponent(q, side):
    """Spectrum power behind the angles after ``q`` power iterations: 4q+2 (left)
    or 4q+4 (right, whose factor absorbs an extra half iteration)."""
    _check_side(side)
    return 4 * q + 2 if side == "left" else 4 * q + 4


def _orthonormal_bases(U, V):
    """``(Q_U, Q_V)`` for bases ``U`` (d x a) and ``V`` (d x b) with a >= b."""
    U = as_matrix(U, "U")
    V = as_matrix(V, "V")
    if U.shape[0] != V.shape[0]:
        raise ShapeMismatch("subspace bases live in different dimensions")
    if U.shape[1] < V.shape[1]:
        raise BadShape("first basis must span the larger subspace (a >= b)")
    return qr_ortho(U), qr_ortho(V)


def canonical_angles(U, V):
    """Sines of the canonical angles between span(U) and span(V).

    ``U`` is d x a, ``V`` is d x b with a >= b; the result has length b,
    sorted nondecreasing. Computed from the singular values of
    ``(I - Q_U Q_U^T) Q_V`` (accurate near zero angles); see
    :func:`canonical_angles_cos` for the cosine-route cross-check.
    """
    Qu, Qv = _orthonormal_bases(U, V)
    return np.clip(svdvals(Qv - Qu @ (Qu.T @ Qv))[::-1], 0.0, 1.0)


def canonical_angles_cos(U, V):
    """Same angles via cosines sigma_i(Q_U^T Q_V); loses accuracy near zero."""
    Qu, Qv = _orthonormal_bases(U, V)
    c = np.clip(svdvals(Qu.T @ Qv), 0.0, 1.0)
    return np.sqrt(np.clip(1.0 - c ** 2, 0.0, 1.0))


def pad_spectrum(sigma_hat, r):
    """Extend an approximated length-l spectrum to length r with copies of
    its last value (the convention for evaluating bounds without the true
    spectrum)."""
    sigma_hat = np.asarray(sigma_hat, dtype=np.float64)
    if sigma_hat.ndim != 1 or sigma_hat.size == 0:
        raise BadShape("sigma_hat must be a nonempty vector")
    if r < sigma_hat.size:
        raise BadShape(f"r={r} shorter than the spectrum ({sigma_hat.size})")
    return np.concatenate([sigma_hat, np.full(r - sigma_hat.size, sigma_hat[-1])])


def default_distortions(k, l, r):
    """The experimental convention eps1 = sqrt(k/l), eps2 = sqrt(l/(r-k))."""
    return float(np.sqrt(k / l)), float(np.sqrt(l / (r - k)))


def tail_flatness(sigma, k, q):
    """(sum_{j>k} s_j^(4q+2))^2 / sum_{j>k} s_j^(2(4q+2)), in (1, r-k]."""
    sigma = np.asarray(sigma, dtype=np.float64)
    tail = sigma[k:]
    if tail.size == 0:
        raise EmptyTail(f"k={k} leaves no trailing spectrum (r={sigma.size})")
    # Normalize before powering to dodge under/overflow at large exponents.
    w = (tail / tail[0]) ** (4 * q + 2)
    return float(w.sum() ** 2 / (w ** 2).sum())


@dataclass(frozen=True)
class PriorBoundInputs:
    """Spectrum-only inputs for the prior probabilistic angle bounds.

    ``side`` selects the exponent: "left" uses 4q+2, "right" uses 4q+4
    (:func:`_exponent`).
    Upper-bound distortions ``eps1``/``eps2`` default to sqrt(k/l) and
    sqrt(l/(r-k)); lower-bound ones default to twice that.
    """

    sigma: np.ndarray
    k: int
    l: int
    q: int
    side: str = "left"
    eps1: float | None = None
    eps2: float | None = None
    eps1_lower: float | None = None
    eps2_lower: float | None = None

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "sigma", sigma)
        r = sigma.size
        if not (sigma > 0).all() or (np.diff(sigma) > 1e-15).any():
            raise BadShape("spectrum must be positive and nonincreasing")
        if not 0 < self.k < self.l < r:
            raise BadShape(f"need 0 < k < l < r, got k={self.k}, l={self.l}, r={r}")
        _check_side(self.side)
        if self.q < 0:
            raise BadShape(f"q must be >= 0, got {self.q}")
        e1, e2 = default_distortions(self.k, self.l, r)
        for name, default in (("eps1", e1), ("eps2", e2),
                              ("eps1_lower", 2 * e1), ("eps2_lower", 2 * e2)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        for name in ("eps1", "eps2"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise DistortionOutOfRange(f"{name}={v:.4f} outside (0, 1)")
        if not self.eps1_lower > 0:
            raise DistortionOutOfRange("eps1_lower must be positive")

    @property
    def lower_defined(self):
        """The lower-bound formula needs eps2_lower < 1, i.e. l well below r - k."""
        return 0 < self.eps2_lower < 1

    @property
    def exponent(self):
        return _exponent(self.q, self.side)


@dataclass(frozen=True)
class PriorBounds:
    upper: np.ndarray
    lower: np.ndarray | None
    tail_flatness: float


def prior_space_agnostic(inputs):
    """Prior upper/lower bounds on the first k angle sines from the spectrum alone.

    upper_i = (1 + (1-eps1)/(1+eps2) * l/sum_tail(s^p) * s_i^p)^(-1/2) with
    p the side exponent; the lower bound swaps in (1+eps1')/(1-eps2') and is
    ``None`` when eps2' >= 1 leaves its formula undefined. Evaluation is
    linear in the spectrum length.
    """
    p = inputs.exponent
    sigma = inputs.sigma
    k, l = inputs.k, inputs.l
    scale = sigma[0]
    pow_all = (sigma / scale) ** p
    tail_sum = pow_all[k:].sum()
    ratio_up = (1 - inputs.eps1) / (1 + inputs.eps2)
    head = pow_all[:k]
    upper = 1.0 / np.sqrt(1.0 + ratio_up * (l / tail_sum) * head)
    lower = None
    if inputs.lower_defined:
        ratio_lo = (1 + inputs.eps1_lower) / (1 - inputs.eps2_lower)
        lower = 1.0 / np.sqrt(1.0 + ratio_lo * (l / tail_sum) * head)
    eta = tail_flatness(sigma, k, inputs.q)
    return PriorBounds(upper=upper, lower=lower, tail_flatness=eta)


def prior_reference_bound(sigma, k, l, q, omega1, omega2, side="left"):
    """The reference prior bound that needs the projected test matrices.

    bound_i = (1 + s_i^p / (s_{k+1}^p ||Omega2 Omega1^+||_2^2))^(-1/2) with
    p = 4q+2 (left) or 4q+4 (right). ``omega1`` is k x l (the embedding
    projected onto the leading right subspace) and ``omega2`` the tail
    projection, with ``l`` columns; synthetic matrices with known factors
    can supply both. ``omega1`` must have numerically full row rank.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    omega1 = as_matrix(omega1, "omega1")
    omega2 = as_matrix(omega2, "omega2")
    p = _exponent(q, side)
    if omega1.shape != (k, l) or omega2.shape[1] != l:
        raise ShapeMismatch(f"omega1 must be {k}x{l} and omega2 have {l} columns, "
                            f"got {omega1.shape} and {omega2.shape}")
    if sigma.size <= k:
        raise EmptyTail(f"need a spectrum longer than k={k}")
    cross = spectral_norm(lstsq_full_rank(omega1.T, omega2.T, SingularOmega1, "omega1^T"))
    head = (sigma[:k] / sigma[k]) ** p
    if cross == 0.0:
        return np.zeros(k)
    return 1.0 / np.sqrt(1.0 + head / cross ** 2)


@dataclass(frozen=True)
class EstimateReport:
    """Per-index mean/min/max of the unbiased angle estimates over trials."""

    mean: np.ndarray
    min: np.ndarray
    max: np.ndarray
    n_trials: int


def unbiased_estimates(sigma, k, l, q, n_trials, seed=None, side="left"):
    """Unbiased Monte-Carlo estimates of E[sin angle_i] from the spectrum.

    Per trial: draw a Gaussian test matrix, weight its leading k x l and
    trailing (r-k) x l row blocks ``w1``, ``w2`` by the spectrum to the power
    2q+1 (left) or 2q+2 (right), and read the sines ``(1 + nu^2)^(-1/2)`` off
    the singular values ``nu`` of ``w1 w2^+``, those of ``w1 R^{-1}`` for
    ``w2 = Q R``. A trial costs one QR of the tail block, a triangular solve
    and a values-only k x l SVD. The tail block must have full column rank
    (every |R_ii| >= ``RANK_RTOL * ||w2||_F``, :func:`~randskel.dense.qr_checked`),
    so r - k >= l; else :class:`TailRankDeficient`. ``sigma`` must be a finite
    vector with ``sigma[0] > 0``.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    half_p = _exponent(q, side) // 2
    if sigma.ndim != 1 or not (np.isfinite(sigma).all() and (sigma[:1] > 0).all()):
        raise BadShape("sigma must be a finite vector with sigma[0] > 0")
    r = sigma.size
    if not k < l:
        raise BadShape(f"need k < l, got k={k}, l={l}")
    if r <= k:
        raise EmptyTail(f"need a spectrum longer than k={k}")
    if n_trials < 1:
        raise BadShape(f"n_trials must be >= 1, got {n_trials}")
    if r - k < l:
        raise TailRankDeficient(f"estimator needs r - k >= l, got r={r}, k={k}, l={l}")
    w_head = (sigma[:k] / sigma[0]) ** half_p
    w_tail = (sigma[k:] / sigma[0]) ** half_p
    thetas = np.empty((n_trials, k))
    for j, stream in enumerate(_as_seed_sequence(seed).spawn(n_trials)):
        omega = np.random.default_rng(stream).standard_normal((r, l)) / np.sqrt(l)
        w1 = w_head[:, None] * omega[:k]       # k x l
        w2 = w_tail[:, None] * omega[k:]       # (r-k) x l
        R = qr_checked(w2, TailRankDeficient, "weighted tail block")[1]
        nu = svdvals(w1 @ solve_upper(R, np.eye(l)))
        thetas[j] = 1.0 / np.sqrt(1.0 + nu ** 2)
    return EstimateReport(mean=thetas.mean(axis=0), min=thetas.min(axis=0),
                          max=thetas.max(axis=0), n_trials=n_trials)


def _check_k(k, shape):
    if not 1 <= k <= min(shape):
        raise BadShape(f"need 1 <= k <= min(m, n), got k={k} for {shape[0]}x{shape[1]}")


def _spectrum(sigma, k):
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size < k:
        raise ShapeMismatch(f"spectrum shorter than k={k}")
    return sigma


def _residual(A, basis, side):
    """``(I - B B^T) A`` (left) or ``A (I - B B^T)`` (right) for a basis ``B``."""
    if side == "left":
        if basis.shape[0] != A.shape[0]:
            raise ShapeMismatch("left basis rows must match A rows")
        return A - basis @ (basis.T @ A)
    if basis.shape[0] != A.shape[1]:
        raise ShapeMismatch("right basis rows must match A columns")
    return A - (A @ basis) @ basis.T


def _residual_values(A, basis, side):
    return svdvals(_residual(A, basis, side))


def _simple_bound(s_res, sigma, k):
    i = np.arange(1, k + 1)
    first = s_res[k - i] / sigma[k - 1]
    second = s_res[0] / sigma[i - 1]
    return np.clip(np.minimum(first, second), 0.0, 1.0)


def posterior_simple(A, basis, sigma, k, side="left"):
    """Residual/spectrum posterior upper bounds on the first k angle sines.

    ``basis`` is the computed orthonormal factor (left: m x l, right: n x l);
    ``sigma`` the true or padded spectrum. Per index the bound is
    ``min(s_{k-i+1}(residual)/s_k, s_1(residual)/s_i)``, clipped to [0, 1].
    Needs ``1 <= k <= min(m, n)``.
    """
    A = as_matrix(A, "A")
    basis = as_matrix(basis, "basis")
    _check_side(side)
    _check_k(k, A.shape)
    sigma = _spectrum(sigma, k)
    return _simple_bound(_residual_values(A, basis, side), sigma, k)


@dataclass(frozen=True)
class PosteriorGapReport:
    """All gap-based posterior bounds plus the ingredients behind them.

    ``valid`` is False when a gap condition fails (s_k <= shat_{k+1} or
    s_k <= ||E33||); the numbers are still reported so benchmarks can log
    the violation, but they are not bounds in that case.
    """

    valid: bool
    norm_E3132_fro: float
    norm_E3132_spec: float
    norm_E32_spec: float
    norm_E33_spec: float
    gamma1: float
    gamma2: float
    big_gamma1: float
    big_gamma2: float
    bounds: dict = field(repr=False)
    anglewise: dict = field(repr=False)


def _low_rank_factors(A, lr, k):
    """Validated ``(U_hat, V_hat)`` of a rank-l SVD of ``A`` for index ``k``."""
    if not isinstance(lr, LowRankSVD):
        raise BadShape("lr must be a LowRankSVD")
    _check_k(k, A.shape)
    if lr.sigma_hat.size <= k:
        raise BadShape(f"need l > k, got l={lr.sigma_hat.size}, k={k}")
    U = as_matrix(lr.U_hat, "U_hat")
    V = as_matrix(lr.V_hat, "V_hat")
    if U.shape[0] != A.shape[0] or V.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"factors {U.shape}, {V.shape} do not fit A {A.shape}")
    return U, V


def _gap_blocks(A, lr, V, k):
    """``EV = (A - U S V^T) V`` (``[E31, E32]`` up to rotation) and ``E32``."""
    resid = A - lr.approx()
    return resid @ V, resid @ V[:, k:]


def _gap_report(n_fro, n_spec, n_e32, n_e33, sigma, k, shat_k1):
    s_k = float(sigma[k - 1])
    valid = s_k > shat_k1 and s_k > n_e33

    gamma1 = (s_k ** 2 - shat_k1 ** 2) / s_k
    gamma2 = (s_k ** 2 - shat_k1 ** 2) / shat_k1 if shat_k1 > 0 else np.inf
    bg1 = (s_k ** 2 - n_e33 ** 2) / s_k
    bg2 = (s_k ** 2 - n_e33 ** 2) / n_e33 if n_e33 > 0 else np.inf

    def _safe(num, den):
        return float(num / den) if den > 0 else float("inf")

    uk_uk_extra = np.sqrt(1.0 + (n_e32 / gamma2) ** 2) if np.isfinite(gamma2) else 1.0
    vk_vk_extra = np.sqrt((n_e32 / gamma1) ** 2 + (n_e33 / s_k) ** 2) if gamma1 != 0 else np.inf
    bounds = {
        "Uk_Ul_fro": _safe(n_fro, bg1),
        "Uk_Ul_spec": _safe(n_spec, bg1),
        "Vk_Vl_fro": _safe(n_fro, bg2),
        "Vk_Vl_spec": _safe(n_spec, bg2),
        "Uk_Uk_fro": _safe(n_fro * uk_uk_extra, bg1),
        "Uk_Uk_spec": _safe(n_spec * uk_uk_extra, bg1),
        "Vk_Vk_fro": _safe(n_fro * vk_vk_extra, bg1),
        "Vk_Vk_spec": _safe(n_spec * vk_vk_extra, bg1),
    }

    head = sigma[:k]
    # i-th smallest angle pairs with s_i: tightest factor on the smallest
    # angle, factor 1 on the largest (arrays ascend with the sines).
    ratio = s_k / head
    base1 = _safe(n_spec, bg1)
    base2 = _safe(n_spec, bg2)
    anglewise = {
        "Uk_Ul": ratio * base1,
        "Vk_Vl": ratio * base2,
        "Uk_Uk": base1 * np.sqrt(1.0 + (ratio * _safe(n_e32, gamma2)) ** 2),
        "Vk_Vk": base1 * np.sqrt((ratio * _safe(n_e32, gamma1)) ** 2
                                 + (n_e33 / s_k) ** 2),
    }
    return PosteriorGapReport(
        valid=valid,
        norm_E3132_fro=n_fro,
        norm_E3132_spec=n_spec,
        norm_E32_spec=n_e32,
        norm_E33_spec=n_e33,
        gamma1=float(gamma1),
        gamma2=float(gamma2),
        big_gamma1=float(bg1),
        big_gamma2=float(bg2),
        bounds=bounds,
        anglewise=anglewise,
    )


def posterior_gap(A, lr, sigma, k, estimate_spectral=False,
                  estimate_iters=50, estimate_seed=None):
    """Gap-based posterior bounds from the residual norms of a rank-l SVD.

    ``sigma`` supplies the true (or padded) spectrum; the (k+1)-th
    approximated singular value comes from ``lr`` itself. Gap violations
    flag the report invalid instead of raising, since they are data
    facts a benchmark needs to record. Needs ``1 <= k <= min(m, n)`` and
    ``l > k``.

    Norms are exact by default; ``estimate_spectral=True`` swaps the three
    spectral norms for randomized power-method estimates (for inputs where
    exact dense norms are too expensive).
    """
    A = as_matrix(A, "A")
    _, V = _low_rank_factors(A, lr, k)
    sigma = _spectrum(sigma, k)
    EV, E32 = _gap_blocks(A, lr, V, k)
    if estimate_spectral:
        def _est(M, salt):
            return spectral_norm_estimate(
                lambda v: M @ v, lambda w: M.T @ w, M.shape[1],
                estimate_iters,
                seed=np.random.SeedSequence([0 if estimate_seed is None
                                             else estimate_seed, salt]))
        n_spec = _est(EV, 0)
        n_e32 = _est(E32, 1)
        n_e33 = _est(_residual(A, V, "right"), 2)
    else:
        n_spec = spectral_norm(EV)
        n_e32 = spectral_norm(E32)
        n_e33 = float(_residual_values(A, V, "right")[0])
    return _gap_report(float(np.linalg.norm(EV)), n_spec, n_e32, n_e33, sigma, k,
                       float(lr.sigma_hat[k]))


@dataclass(frozen=True)
class PosteriorResiduals:
    """What both posterior bound families need from ``A`` and a rank-l SVD,
    measured once by :func:`posterior_residuals`; evaluating a bound for a
    spectrum is then arithmetic on these values.

    ``left``/``right`` are the singular values of ``(I - U_hat U_hat^T) A``
    and ``A (I - V_hat V_hat^T)``; the latter is the gap family's ``E33``,
    so ``||E33||_2 = right[0]``.
    """

    k: int
    left: np.ndarray
    right: np.ndarray
    norm_EV_fro: float
    norm_EV_spec: float
    norm_E32_spec: float
    shat_k1: float

    def simple(self, sigma, side="left"):
        """Equals ``posterior_simple(A, lr.U_hat or lr.V_hat, sigma, k, side)``."""
        _check_side(side)
        s_res = self.left if side == "left" else self.right
        return _simple_bound(s_res, _spectrum(sigma, self.k), self.k)

    def gap(self, sigma):
        """Equals ``posterior_gap(A, lr, sigma, k)`` (exact norms)."""
        return _gap_report(self.norm_EV_fro, self.norm_EV_spec, self.norm_E32_spec,
                           float(self.right[0]), _spectrum(sigma, self.k), self.k,
                           self.shat_k1)


def posterior_residuals(A, lr, k):
    """Measure the residual spectra and norms behind the posterior bounds once.

    Costs two values-only SVDs of m x n residuals plus O(mnl) products,
    whatever the number of spectra and sides evaluated afterwards through
    :meth:`PosteriorResiduals.simple` and :meth:`PosteriorResiduals.gap`.
    Needs ``1 <= k <= min(m, n)`` and ``l > k``.
    """
    A = as_matrix(A, "A")
    U, V = _low_rank_factors(A, lr, k)
    EV, E32 = _gap_blocks(A, lr, V, k)
    norms = dict(norm_EV_fro=float(np.linalg.norm(EV)), norm_EV_spec=spectral_norm(EV),
                 norm_E32_spec=spectral_norm(E32))
    del EV, E32  # not alive under the two m x n residuals
    return PosteriorResiduals(
        k=k,
        left=_residual_values(A, U, "left"),
        right=_residual_values(A, V, "right"),
        shat_k1=float(lr.sigma_hat[k]),
        **norms,
    )


@dataclass(frozen=True)
class BalanceConfig:
    """Budget/size/oversampling parameters for the balance study.

    A budget of N = alpha*k products with the matrix is split between the
    sample size l = N/(2q+1) and the iteration count q; ``gap`` is the
    spectral step sigma_1/sigma_{k+1}.
    """

    k: int
    alpha: float
    beta: float
    gamma: float
    gap: float

    def __post_init__(self):
        if self.gamma <= 1:
            raise BadShape(f"gamma must exceed 1, got {self.gamma}")
        if self.k < 1 or self.alpha <= 0 or self.beta <= 0 or self.gap <= 0:
            raise BadShape("k, alpha, beta, gap must be positive")

    @property
    def budget(self):
        return self.alpha * self.k

    @property
    def r(self):
        return int(round((1 + self.beta) * self.k))

    def max_q(self):
        """Largest q with 2q+1 <= alpha/gamma^2."""
        _check_admissible(self, 0)
        return int((self.alpha / self.gamma ** 2 - 1) // 2)

    def admissible_q(self):
        return list(range(self.max_q() + 1))

    def sample_size(self, q):
        """Integer l = floor(N / (2q+1)) actually usable at iteration count q."""
        return int(self.budget // (2 * q + 1))


def _check_admissible(config, q):
    top = config.alpha / config.gamma ** 2
    if q < 0 or 2 * q + 1 > top:
        raise InadmissibleQ(f"q={q} outside admissible range (2q+1 <= alpha/gamma^2 = {top:.3f})")


def balance_phi(config, q):
    """The budget-balance value phi_gamma(q) in (0, 1).

    Evaluated in the closed budget form
    (1 + (alpha - gamma sqrt(alpha(2q+1))) /
         (beta(2q+1) + gamma sqrt(alpha beta (2q+1))) * gap^(4q+2))^(-1/2);
    q is admissible when 2q+1 <= alpha/gamma^2.
    """
    _check_admissible(config, q)
    a, b, g = config.alpha, config.beta, config.gamma
    t = 2 * q + 1
    num = a - g * np.sqrt(a * t)
    den = b * t + g * np.sqrt(a * b * t)
    return float(1.0 / np.sqrt(1.0 + (num / den) * config.gap ** (4 * q + 2)))


def balance_phi_from_l(config, q):
    """phi_gamma(q) in the sample-size form (cross-check of the identity)."""
    _check_admissible(config, q)
    l = config.budget / (2 * q + 1)
    k, g = config.k, config.gamma
    r_minus_k = config.beta * k
    eps1 = g * np.sqrt(k / l)
    eps2 = g * np.sqrt(l / r_minus_k)
    coeff = (1 - eps1) / (1 + eps2) * (l / r_minus_k)
    return float(1.0 / np.sqrt(1.0 + coeff * config.gap ** (4 * q + 2)))
