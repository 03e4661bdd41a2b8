import warnings

import numpy as np
import pytest

from randskel import (
    make_gaussian,
    power_iter_plain,
    power_iter_stable,
    randomized_svd,
    rangefinder_error,
    svd_thin,
)
from randskel.angles import canonical_angles
from randskel.sketch import SketchOperator
from randskel.errors import BadShape, RankDeficient, ShapeMismatch
from oracles import MatvecOnly, random_matrix, residual_norms, size_cases, truncated_svd_error


class _EyeOp(SketchOperator):
    """Identity 'embedding' stub for exact small cases."""

    def __init__(self, n):
        self.out_dim = self.in_dim = n

    def to_dense(self):
        return np.eye(self.in_dim)

    def _apply_dense(self, A):
        return A


class TestPowerIterPlain:
    def test_q0_is_right_sketch(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((9, 7))
        om = make_gaussian(3, 7, seed=1)
        assert np.allclose(power_iter_plain(A, om, 0), A @ om.to_dense().T)

    def test_diagonal_powers(self):
        A = np.diag([2.0, 1.0])
        Y = power_iter_plain(A, _EyeOp(2), 2)
        # exponent is 2q+1 = 5
        assert np.allclose(Y, np.diag([32.0, 1.0]))

    def test_matches_explicit_triple_product(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 20))
        om = make_gaussian(6, 20, seed=3)
        got = power_iter_plain(A, om, 1)
        want = A @ A.T @ A @ om.to_dense().T
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestPowerIterStable:
    def test_q0_orthonormal_input(self):
        rng = np.random.default_rng(4)
        A = np.linalg.qr(rng.standard_normal((12, 4)))[0]
        Q = power_iter_stable(A, _EyeOp(4), 0)
        assert np.linalg.norm(Q @ Q.T - A @ A.T, 2) < 1e-12

    @pytest.mark.parametrize("q", [0, 1])
    def test_span_agrees_with_plain(self, q):
        rng = np.random.default_rng(5)
        A = random_matrix(rng, 25, 18, spectrum=np.linspace(3, 1, 12))
        om = make_gaussian(6, 18, seed=6)
        Q = power_iter_stable(A, om, q)
        Y = power_iter_plain(A, om, q)
        Qy = np.linalg.qr(Y)[0]
        sines = canonical_angles(Q, Qy)
        assert sines.max() < 1e-8

    def test_survives_extreme_conditioning(self):
        rng = np.random.default_rng(7)
        U, _, Vt = np.linalg.svd(rng.standard_normal((40, 40)))
        A = (U * np.logspace(0, -12, 40)) @ Vt
        om = make_gaussian(8, 40, seed=8)
        Q = power_iter_stable(A, om, 3)
        assert np.linalg.norm(Q.T @ Q - np.eye(8), 2) < 1e-9
        Y = power_iter_plain(A, om, 3)
        rank = np.linalg.matrix_rank(Y, tol=1e-12 * np.abs(Y).max())
        assert rank < 8  # the plain product collapses where the stable one holds


class TestRandomizedSvd:
    def test_exact_rank_capture(self):
        rng = np.random.default_rng(9)
        A = random_matrix(rng, 30, 25, rank=6)
        lr = randomized_svd(A, 8, q=0, seed=1)
        assert np.linalg.norm(A - lr.approx()) < 1e-9 * np.linalg.norm(A)

    def test_orthonormal_factors_and_order(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((40, 30))
        lr = randomized_svd(A, 10, q=1, seed=2)
        assert np.linalg.norm(lr.U_hat.T @ lr.U_hat - np.eye(10), 2) < 1e-9
        assert np.linalg.norm(lr.V_hat.T @ lr.V_hat - np.eye(10), 2) < 1e-9
        assert (np.diff(lr.sigma_hat) <= 1e-12).all()

    def test_interlacing_every_run(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((35, 28))
        sigma = svd_thin(A).sigma
        for seed in range(10):
            for q in (0, 1, 2):
                lr = randomized_svd(A, 7, q=q, seed=seed)
                assert (lr.sigma_hat <= sigma[:7] + 1e-10).all()

    def test_diag_values_approach_truth_with_q(self):
        A = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        lr2 = randomized_svd(A, 3, q=2, seed=3)
        truth = np.array([5.0, 4.0, 3.0])
        assert (lr2.sigma_hat <= truth + 1e-12).all()
        assert np.abs(lr2.sigma_hat - truth).max() < 0.05

    def test_eckart_young_floor(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((30, 22))
        sigma = svd_thin(A).sigma
        for seed in range(5):
            lr = randomized_svd(A, 6, q=0, seed=seed)
            err = np.linalg.norm(A - lr.approx())
            assert err >= truncated_svd_error(sigma, 6) - 1e-10

    def test_gaussian_expectation_bound(self):
        # mean over seeds of the squared residual against the (l-1)/(l-k-1) factor
        rng = np.random.default_rng(13)
        k, l = 5, 9
        A = random_matrix(rng, 40, 30, spectrum=np.r_[np.ones(k) * 3, 0.99 ** np.arange(20)])
        sigma = svd_thin(A).sigma
        opt_sq = truncated_svd_error(sigma, k) ** 2
        acc = 0.0
        n_seeds = 500
        for seed in range(n_seeds):
            X = make_gaussian(l, 40, seed=seed).apply(A)
            fe, _ = rangefinder_error(A, X)
            acc += fe ** 2
        assert acc / n_seeds <= (l - 1) / (l - k - 1) * opt_sq * 1.10

    def test_reproducible(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((20, 16))
        a = randomized_svd(A, 5, q=1, seed=42)
        b = randomized_svd(A, 5, q=1, seed=42)
        assert np.array_equal(a.U_hat, b.U_hat)
        assert np.array_equal(a.sigma_hat, b.sigma_hat)

    def test_error_monotone_in_q_statistically(self):
        rng = np.random.default_rng(15)
        A = random_matrix(rng, 30, 30, spectrum=1 / np.arange(1, 21) ** 0.5)
        means = []
        for q in (0, 1, 2):
            tot = 0.0
            for seed in range(200):
                lr = randomized_svd(A, 5, q=q, seed=seed)
                tot += np.linalg.norm(A - lr.approx())
            means.append(tot / 200)
        assert means[0] >= means[1] >= means[2]


class TestRangefinderError:
    def test_right_singular_vectors_reach_optimum(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((20, 15))
        f = svd_thin(A)
        fe, _ = rangefinder_error(A, f.V[:, :4].T)
        assert abs(fe - truncated_svd_error(f.sigma, 4)) < 1e-10

    def test_own_rows_give_zero(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((10, 10))
        fe, se = rangefinder_error(A, A)
        assert fe < 1e-10 and se < 1e-10

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(18)
        A = rng.standard_normal((25, 18))
        X = rng.standard_normal((6, 18))
        fe, se = rangefinder_error(A, X)
        fo, so = residual_norms(A, X)
        assert abs(fe - fo) < 1e-11
        assert abs(se - so) < 1e-11

    def test_residual_near_the_float_range_has_finite_norms(self):
        # the Frobenius norm of a finite 7 x 7 residual of entries near 1e300 is
        # about 4e300: in range, and read without an overflow warning
        A = np.random.default_rng(19).standard_normal((7, 7)) * 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fe, se = rangefinder_error(A, A[:3])
        fo, so = residual_norms(A / 1e300, A[:3] / 1e300)
        assert fe == pytest.approx(fo * 1e300, rel=1e-10)
        assert se == pytest.approx(so * 1e300, rel=1e-10)

    def test_rank_deficient_rows(self):
        X = np.vstack([np.ones((2, 5)), np.ones((1, 5))])
        with pytest.raises(RankDeficient):
            rangefinder_error(np.eye(5), X)


_A = np.random.default_rng(30).standard_normal((8, 6))
_OMEGA = make_gaussian(3, 6, seed=0)
#: A finite input whose plain power iteration leaves the float range.
_HUGE = np.random.default_rng(33).standard_normal((6, 4)) * 1e300
_B = np.random.default_rng(31).standard_normal((60, 40))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: power_iter_plain(_A, _OMEGA, -1), BadShape, id="plain-q<0"),
    pytest.param(lambda: power_iter_stable(_A, _OMEGA, -1), BadShape, id="stable-q<0"),
    pytest.param(lambda: randomized_svd(_A), BadShape, id="rsvd-no-l-or-rank"),
    pytest.param(lambda: randomized_svd(_A, 0), BadShape, id="rsvd-l=0"),
    pytest.param(lambda: randomized_svd(_A, 3, target_rank=2),
                 pytest.raises(BadShape, match="^pass either l or target_rank, not both$"),
                 id="rsvd-l-and-target-rank"),
    pytest.param(lambda: randomized_svd(_A, 7), BadShape, id="rsvd-l>min(m,n)"),
    pytest.param(lambda: rangefinder_error(_A, np.ones((2, 5))), ShapeMismatch,
                 id="rangefinder-error-columns"),
    pytest.param(lambda: randomized_svd(MatvecOnly(_B, matmat=lambda P: P[:, :1]), 5, q=1),
                 pytest.raises(ShapeMismatch, match="operator matmat returned shape"),
                 id="rsvd-matmat-shape"),
    pytest.param(lambda: power_iter_plain(_HUGE, make_gaussian(2, 4, seed=0), 1),
                 pytest.raises(BadShape, match=r"^the plain power iteration \(A A\^T\)\^q A "
                               r"Omega\^T overflows"), id="plain-overflow"),
    pytest.param(lambda: power_iter_plain(_A, "gaussian", 1),
                 pytest.raises(BadShape, match="^omega must be an embedding"), id="plain-omega"),
    pytest.param(lambda: power_iter_stable(_A, None, 1),
                 pytest.raises(BadShape, match="^omega must be an embedding"), id="stable-omega"),
    *size_cases("plain-q", "q", lambda q: power_iter_plain(_A, _OMEGA, q), 1, -1),
    *size_cases("stable-q", "q", lambda q: power_iter_stable(_A, _OMEGA, q), 1, -1),
    *size_cases("rsvd-l", "l", lambda l: randomized_svd(_A, l), 3, 7),
    *size_cases("rsvd-target-rank", "target_rank", lambda k: randomized_svd(_A, target_rank=k),
                2, 0),
])
def test_documented_errors(call, error):
    with error if isinstance(error, pytest.RaisesExc) else pytest.raises(error):
        call()
