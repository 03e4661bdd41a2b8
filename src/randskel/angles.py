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
the ``R`` factor of an (r-k) x l weighted tail block's QR (its ``Q`` is not
formed), a triangular solve and a values-only k x l SVD; its rank test is the
library's one rule, each |R_ii| against ``RANK_RTOL * ||w2||_F``, that of
:func:`randskel.dense.qr_checked`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dense import (_child_seeds, _count, _gesdd, _in_range, _norm_fro, _project_out, _r_checked,
                    _real, _spectrum, as_matrix, lstsq_full_rank, qr_checked, solve_upper,
                    spectral_norm, spectral_norm_estimate)
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


def _check_side(side):
    if side not in ("left", "right"):
        raise BadShape(f"side must be 'left' or 'right', got {side!r}")


def _exponent(q, side):
    """Spectrum power behind the angles after ``q`` power iterations: 4q+2 (left)
    or 4q+4 (right, whose factor absorbs an extra half iteration)."""
    _check_side(side)
    q = _count(q, "q", 0)
    return 4 * q + 2 if side == "left" else 4 * q + 4


def _orthonormal_bases(U, V):
    """``(Q_U, Q_V)`` for bases ``U`` (d x a) and ``V`` (d x b) with a >= b."""
    U, V = as_matrix(U, "U"), as_matrix(V, "V")
    if U.shape[0] != V.shape[0]:
        raise ShapeMismatch("subspace bases live in different dimensions")
    if U.shape[1] < V.shape[1]:
        raise BadShape("first basis must span the larger subspace (a >= b)")
    if U.shape[0] < U.shape[1]:
        raise BadShape(f"need rows >= cols, got {U.shape[0]}x{U.shape[1]}")
    return qr_checked(U)[0], qr_checked(V)[0]


def canonical_angles(U, V):
    """Sines of the canonical angles between span(U) and span(V).

    ``U`` is d x a, ``V`` is d x b with a >= b; the result has length b,
    sorted nondecreasing. Computed from the singular values of
    ``(I - Q_U Q_U^T) Q_V`` (accurate near zero angles); see
    :func:`canonical_angles_cos` for the cosine-route cross-check.
    """
    Qu, Qv = _orthonormal_bases(U, V)
    return np.clip(_gesdd(_project_out(Qv, Qu, "left"))[1][::-1], 0.0, 1.0)


def canonical_angles_cos(U, V):
    """Same angles via cosines sigma_i(Q_U^T Q_V); loses accuracy near zero."""
    Qu, Qv = _orthonormal_bases(U, V)
    c = np.clip(_gesdd(Qu.T @ Qv)[1], 0.0, 1.0)
    return np.sqrt(np.clip(1.0 - c ** 2, 0.0, 1.0))


def pad_spectrum(sigma_hat, r):
    """Extend an approximated length-l spectrum to length r with copies of
    its last value (the convention for evaluating bounds without the true
    spectrum)."""
    sigma_hat = _spectrum(sigma_hat, "sigma_hat")
    r = _count(r, "r", sigma_hat.size)
    return np.concatenate([sigma_hat, np.full(r - sigma_hat.size, sigma_hat[-1])])


def default_distortions(k, l, r):
    """The experimental convention eps1 = sqrt(k/l), eps2 = sqrt(l/(r-k))."""
    return float(np.sqrt(k / l)), float(np.sqrt(l / (r - k)))


def tail_flatness(sigma, k, q):
    """(sum_{j>k} s_j^(4q+2))^2 / sum_{j>k} s_j^(2(4q+2)), in (1, r-k]."""
    sigma, q = _spectrum(sigma, "sigma"), _count(q, "q", 0)
    tail = sigma[_count(k, "k", 1):]
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
        sigma = _spectrum(self.sigma, "sigma")
        object.__setattr__(self, "sigma", sigma)
        _count(self.k, "k", 1, _count(self.l, "l", 2, sigma.size - 1) - 1)
        _count(self.q, "q", 0)
        _check_side(self.side)
        e1, e2 = default_distortions(self.k, self.l, sigma.size)
        for name, default in (("eps1", e1), ("eps2", e2),
                              ("eps1_lower", 2 * e1), ("eps2_lower", 2 * e2)):
            value = getattr(self, name)
            object.__setattr__(self, name, default if value is None
                               else _real(value, name, -np.inf, np.inf))
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
    sigma, k, l = _spectrum(sigma, "sigma"), _count(k, "k", 1), _count(l, "l", 1)
    omega1, omega2 = as_matrix(omega1, "omega1"), as_matrix(omega2, "omega2")
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
    ``w2 = Q R``. A trial costs the ``R`` of the tail block's QR (``Q`` is not
    formed), a triangular solve and a values-only k x l SVD. The tail block
    must have full column rank (every |R_ii| >= ``RANK_RTOL * ||w2||_F``, the
    test of :func:`~randskel.dense.qr_checked`), so r - k >= l; else
    :class:`TailRankDeficient`. ``sigma`` must be a finite, positive and
    nonincreasing vector, 1 <= k < l, q >= 0 and n_trials >= 1; else
    :class:`BadShape`.
    """
    sigma = _spectrum(sigma, "sigma")
    half_p = _exponent(q, side) // 2
    r = sigma.size
    k = _count(k, "k", 1, _count(l, "l", 2) - 1)
    if r <= k:
        raise EmptyTail(f"need a spectrum longer than k={k}")
    n_trials = _count(n_trials, "n_trials", 1)
    if r - k < l:
        raise TailRankDeficient(f"estimator needs r - k >= l, got r={r}, k={k}, l={l}")
    w_head = (sigma[:k] / sigma[0]) ** half_p
    w_tail = (sigma[k:] / sigma[0]) ** half_p
    thetas = np.empty((n_trials, k))
    for j, stream in enumerate(_child_seeds(seed, n_trials)):
        omega = np.random.default_rng(stream).standard_normal((r, l)) / np.sqrt(l)
        w1 = w_head[:, None] * omega[:k]       # k x l
        w2 = w_tail[:, None] * omega[k:]       # (r-k) x l
        R = _r_checked(w2, TailRankDeficient, "weighted tail block")[0]
        nu = _gesdd(_in_range("w1 R^-1", lambda: w1 @ solve_upper(R, np.eye(l))))[1]
        thetas[j] = 1.0 / np.sqrt(1.0 + nu ** 2)
    return EstimateReport(mean=thetas.mean(axis=0), min=thetas.min(axis=0),
                          max=thetas.max(axis=0), n_trials=n_trials)


def _posterior_spectrum(sigma, k):
    """The first ``k`` entries of ``sigma``, the only ones a bound reads, by
    :func:`_spectrum`; :class:`ShapeMismatch` if a vector ``sigma`` has fewer."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim == 1 and sigma.size < k:
        raise ShapeMismatch(f"spectrum shorter than k={k}")
    return _spectrum(sigma[:k] if sigma.ndim == 1 else sigma, "sigma")


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
    A, basis = as_matrix(A, "A"), as_matrix(basis, "basis")
    _check_side(side)
    k = _count(k, "k", 1, min(A.shape))
    sigma = _posterior_spectrum(sigma, k)
    return _simple_bound(_gesdd(_project_out(A, basis, side))[1], sigma, k)


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
    _count(k, "k", 1, min(*A.shape, lr.sigma_hat.size - 1))
    U, V = as_matrix(lr.U_hat, "U_hat"), as_matrix(lr.V_hat, "V_hat")
    if U.shape[0] != A.shape[0] or V.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"factors {U.shape}, {V.shape} do not fit A {A.shape}")
    return U, V


def _gap_norms(A, lr, V, k, spectral=spectral_norm):
    """``||EV||_F``, ``||EV||_2`` and ``||E32||_2`` by ``spectral``, from one
    product ``EV = (A - U S V^T) V`` (``[E31, E32]`` up to rotation), whose
    trailing ``l - k`` columns are ``E32``."""
    EV = _in_range("EV = (A - U S V^T) V", lambda: (A - lr.approx()) @ V)
    return _norm_fro(EV), spectral(EV), spectral(EV[:, k:])


@np.errstate(over="ignore", invalid="ignore")  # a gap far below the norms squares to inf
def _gap_report(n_fro, n_spec, n_e32, n_e33, sigma, k, shat_k1):
    s_k = float(sigma[k - 1])
    # i-th smallest angle pairs with s_i: tightest factor on the smallest
    # angle, factor 1 on the largest (arrays ascend with the sines).
    ratio = s_k / sigma[:k]
    # The gaps square singular values, which leave the float range beyond
    # about 2^(+-511). Far from 1, every value is first scaled by the power
    # of two c nearest 1/s_k: that is exact, so every ratio keeps its value,
    # and the gaps are scaled back. In range c = 1, and no bit moves.
    c = 1.0 if 2.0 ** -250 < s_k < 2.0 ** 250 else 2.0 ** -max(math.frexp(s_k)[1], -1022)
    norms = n_fro, n_spec, n_e32, n_e33
    n_fro, n_spec, n_e32, n_e33, s_k, shat_k1 = c * np.array([*norms, s_k, shat_k1])
    valid = bool(s_k > shat_k1 and s_k > n_e33)

    gamma1 = (s_k ** 2 - shat_k1 ** 2) / s_k
    gamma2 = (s_k ** 2 - shat_k1 ** 2) / shat_k1 if shat_k1 > 0 else np.inf
    bg1 = (s_k ** 2 - n_e33 ** 2) / s_k
    bg2 = (s_k ** 2 - n_e33 ** 2) / n_e33 if n_e33 > 0 else np.inf

    def _safe(num, den):
        return num / den if den > 0 else np.inf

    uk_uk_extra = np.sqrt(1.0 + _safe(n_e32, gamma2) ** 2)
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
        norm_E3132_fro=norms[0],
        norm_E3132_spec=norms[1],
        norm_E32_spec=norms[2],
        norm_E33_spec=norms[3],
        gamma1=float(gamma1) / c,
        gamma2=float(gamma2) / c,
        big_gamma1=float(bg1) / c,
        big_gamma2=float(bg2) / c,
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
    sigma = _posterior_spectrum(sigma, k)
    if estimate_spectral:
        # child streams 0, 1, 2 for EV, E32 and E33, in the order they are estimated
        seeds = iter(_child_seeds(estimate_seed, 3))

        def spectral(M):
            return spectral_norm_estimate(lambda v: M @ v, lambda w: M.T @ w, M.shape[1],
                                          estimate_iters, seed=next(seeds))
    else:
        spectral = spectral_norm
    norms = _gap_norms(A, lr, V, k, spectral)
    return _gap_report(*norms, spectral(_project_out(A, V, "right")), sigma, k,
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
        return _simple_bound(s_res, _posterior_spectrum(sigma, self.k), self.k)

    def gap(self, sigma):
        """Equals ``posterior_gap(A, lr, sigma, k)`` (exact norms)."""
        return _gap_report(self.norm_EV_fro, self.norm_EV_spec, self.norm_E32_spec,
                           float(self.right[0]), _posterior_spectrum(sigma, self.k), self.k,
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
    n_fro, n_spec, n_e32 = _gap_norms(A, lr, V, k)  # EV is freed before the residuals
    return PosteriorResiduals(k=k, left=_gesdd(_project_out(A, U, "left"))[1],
                              right=_gesdd(_project_out(A, V, "right"))[1], norm_EV_fro=n_fro,
                              norm_EV_spec=n_spec, norm_E32_spec=n_e32,
                              shat_k1=float(lr.sigma_hat[k]))


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
        _count(self.k, "k", 1)
        for name, low in (("alpha", 0), ("beta", 0), ("gamma", 1), ("gap", 0)):
            _real(getattr(self, name), name, low, np.inf)

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
    if 2 * _count(q, "q", 0) + 1 > top:
        raise InadmissibleQ(f"q={q} outside admissible range (2q+1 <= alpha/gamma^2 = {top:.3f})")


def _phi(coeff, gap, q):
    """``(1 + coeff * gap^(4q+2))^(-1/2)``; where the product leaves float
    range, from logarithms, in which the 1 is lost to rounding. ``coeff`` is
    0 at the edge of the admissible range, below it only by rounding."""
    coeff, gap, power = max(float(coeff), 0.0), float(gap), 4 * q + 2
    try:
        term = coeff * gap ** power
    except OverflowError:
        term = math.inf if coeff else 0.0
    if math.isfinite(term):
        return float(1.0 / np.sqrt(1.0 + term))
    return math.exp(-0.5 * (math.log(coeff) + power * math.log(gap)))


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
    return _phi(num / den, config.gap, q)


def balance_phi_from_l(config, q):
    """phi_gamma(q) in the sample-size form (cross-check of the identity)."""
    _check_admissible(config, q)
    l = config.budget / (2 * q + 1)
    k, g = config.k, config.gamma
    r_minus_k = config.beta * k
    eps1 = g * np.sqrt(k / l)
    eps2 = g * np.sqrt(l / r_minus_k)
    coeff = (1 - eps1) / (1 + eps2) * (l / r_minus_k)
    return _phi(coeff, config.gap, q)
