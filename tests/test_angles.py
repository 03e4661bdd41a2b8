import tracemalloc

import numpy as np
import pytest

from randskel import (
    BalanceConfig,
    PriorBoundInputs,
    balance_phi,
    balance_phi_from_l,
    canonical_angles,
    canonical_angles_cos,
    default_distortions,
    make_gaussian,
    pad_spectrum,
    posterior_gap,
    posterior_residuals,
    posterior_simple,
    prior_reference_bound,
    prior_space_agnostic,
    randomized_svd,
    tail_flatness,
    unbiased_estimates,
)
from randskel.errors import (
    BadShape,
    DistortionOutOfRange,
    EmptyTail,
    InadmissibleQ,
    ShapeMismatch,
    SingularOmega1,
    TailRankDeficient,
)
from randskel.bench.cli import build_config, make_parser
from randskel.bench.experiments import _run_seed, run_angles
from randskel.bench.matrices import realize_matrix
from randskel.testmat import FastDecay, SlowDecay, StepSpectrum, spectrum_values
from oracles import names, random_matrix, size_cases, unbiased_sines_svd


class TestCanonicalAngles:
    def test_contained_subspace(self):
        rng = np.random.default_rng(0)
        U = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        V = U @ rng.standard_normal((4, 2))
        assert canonical_angles(U, V).max() < 1e-10

    def test_orthogonal_subspaces(self):
        U = np.eye(6)[:, :2]
        V = np.eye(6)[:, 3:5]
        assert np.allclose(canonical_angles(U, V), 1.0)

    def test_planar_rotation(self):
        theta = 0.3
        U = np.array([[1.0], [0.0]])
        V = np.array([[np.cos(theta)], [np.sin(theta)]])
        got = canonical_angles(U, V)
        assert abs(got[0] - np.sin(theta)) < 1e-12

    def test_sorted_and_in_range(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            r = np.random.default_rng(seed)
            U = r.standard_normal((15, 6))
            V = r.standard_normal((15, 4))
            s = canonical_angles(U, V)
            assert (np.diff(s) >= -1e-15).all()
            assert (s >= 0).all() and (s <= 1).all()

    def test_cosine_route_cross_check(self):
        # both routes agree to 1e-8 away from the tiny-angle regime
        rng = np.random.default_rng(2)
        U = rng.standard_normal((20, 5))
        V = rng.standard_normal((20, 3))
        a = canonical_angles(U, V)
        b = canonical_angles_cos(U, V)
        mask = a > 1e-4
        assert np.abs(a[mask] - b[mask]).max() < 1e-8

    @pytest.mark.parametrize("angles", [canonical_angles, canonical_angles_cos],
                             ids=["canonical_angles", "canonical_angles_cos"])
    def test_dimension_order_enforced(self, angles):
        with pytest.raises(BadShape):
            angles(np.eye(5)[:, :2], np.eye(5)[:, :3])
        with pytest.raises(ShapeMismatch):
            angles(np.eye(5)[:, :3], np.eye(4)[:, :2])


class TestPriorSpaceAgnostic:
    def test_flat_tail_eta_exact(self):
        sigma = np.r_[np.full(5, 2.0), np.full(12, 0.5)]
        assert tail_flatness(sigma, 5, q=0) == pytest.approx(12.0)
        pb = prior_space_agnostic(PriorBoundInputs(sigma=sigma, k=5, l=8, q=0))
        assert pb.tail_flatness == pytest.approx(12.0)

    def test_default_distortions_values(self):
        e1, e2 = default_distortions(50, 200, 500)
        assert e1 == pytest.approx(0.5)
        assert e2 == pytest.approx(np.sqrt(4 / 9))

    def test_upper_bound_decreases_with_q(self):
        sigma = np.r_[np.full(10, 1.5), np.full(90, 1.0)]
        u0 = prior_space_agnostic(PriorBoundInputs(sigma=sigma, k=10, l=30, q=0)).upper
        u2 = prior_space_agnostic(PriorBoundInputs(sigma=sigma, k=10, l=30, q=2)).upper
        assert (u2 < u0).all()

    def test_right_exponent_larger(self):
        sigma = np.r_[np.full(10, 1.5), np.full(90, 1.0)]
        ul = prior_space_agnostic(PriorBoundInputs(sigma=sigma, k=10, l=30, q=0, side="left")).upper
        ur = prior_space_agnostic(PriorBoundInputs(sigma=sigma, k=10, l=30, q=0, side="right")).upper
        assert (ur < ul).all()

    def test_outputs_in_unit_interval(self):
        sigma = 1 / np.sqrt(np.arange(1, 101))
        pb = prior_space_agnostic(PriorBoundInputs(sigma=sigma, k=5, l=20, q=1))
        assert (pb.upper > 0).all() and (pb.upper < 1).all()
        assert (pb.lower > 0).all() and (pb.lower < 1).all()
        assert (pb.lower <= pb.upper).all()

    def test_lower_undefined_when_oversampling_too_aggressive(self):
        sigma = np.ones(100)
        # l = 40, r - k = 90: eps2' = 2 sqrt(40/90) > 1
        pb = prior_space_agnostic(PriorBoundInputs(sigma=sigma, k=10, l=40, q=0))
        assert pb.lower is None

    def test_invariants_validated(self):
        with pytest.raises(BadShape):
            PriorBoundInputs(sigma=np.ones(10), k=5, l=5, q=0)
        with pytest.raises(DistortionOutOfRange):
            PriorBoundInputs(sigma=np.ones(10), k=2, l=4, q=0, eps2=1.5)

    def test_empty_tail(self):
        from randskel.errors import EmptyTail
        with pytest.raises(EmptyTail):
            tail_flatness(np.ones(5), 5, 0)


class TestReferenceBound:
    def test_zero_tail_block(self):
        sigma = np.r_[2.0, 1.5, np.full(8, 1.0)]
        om1 = np.eye(2, 6)
        om2 = np.zeros((8, 6))
        assert np.allclose(prior_reference_bound(sigma, 2, 6, 0, om1, om2), 0.0)

    def test_unit_cross_norm_formula(self):
        # sigma_i = sigma_{k+1} and unit quotient norm -> 1/sqrt(2)
        sigma = np.ones(10)
        k, l = 2, 4
        om1 = np.eye(k, l)
        om2 = np.zeros((8, l))
        om2[0, :k] = np.eye(k)[0]  # Omega2 Omega1^+ has norm 1
        got = prior_reference_bound(sigma, k, l, 0, om1, om2)
        assert np.allclose(got, 1 / np.sqrt(2))

    def test_omega2_width_mismatch(self):
        sigma = np.ones(10)
        with pytest.raises(ShapeMismatch):
            prior_reference_bound(sigma, 2, 4, 0, np.eye(2, 4), np.zeros((8, 5)))

    def test_rank_deficient_omega1(self):
        rng = np.random.default_rng(3)
        om1 = rng.standard_normal((3, 6))
        om1[2] = om1[0]  # duplicate rows: rank 2 of k = 3
        with pytest.raises(SingularOmega1):
            prior_reference_bound(np.ones(10), 3, 6, 0, om1, rng.standard_normal((7, 6)))

    def test_agnostic_tighter_on_synthetic(self):
        # the spectrum-sum denominator beats sigma_{k+1} ||.||^2 for >= 90%
        # of indices on a decaying synthetic spectrum
        from randskel import gen_gaussian_spectrum, SlowDecay
        k, l, q = 20, 60, 0
        wins = total = 0
        for s in range(20):
            A, U0, sigma, V0 = gen_gaussian_spectrum(200, 200, SlowDecay(), seed=s, r=180)
            G = make_gaussian(l, 200, seed=1000 + s).to_dense()
            om1 = V0[:, :k].T @ G.T
            om2 = V0[:, k:].T @ G.T
            ref = prior_reference_bound(sigma, k, l, q, om1, om2)
            # oracle: the formula with numpy's SVD-based least squares
            cross = np.linalg.norm(np.linalg.lstsq(om1.T, om2.T, rcond=None)[0], 2)
            want = 1.0 / np.sqrt(1.0 + (sigma[:k] / sigma[k]) ** (4 * q + 2) / cross ** 2)
            assert np.allclose(ref, want, rtol=1e-13, atol=0)
            ag = prior_space_agnostic(
                PriorBoundInputs(sigma=sigma, k=k, l=l, q=q)).upper
            wins += int((ref >= ag).sum())
            total += k
        assert wins >= 0.9 * total


class TestUnbiasedEstimates:
    def test_vanishing_tail_limit(self):
        sigma = np.r_[np.ones(4), np.full(40, 1e-9)]
        est = unbiased_estimates(sigma, 4, 8, 0, 5, seed=0)
        assert est.mean.max() < 1e-6

    def test_monotone_in_q_on_gapped_spectrum(self):
        sigma = np.r_[np.full(5, 1.5), np.full(60, 1.0)]
        means = []
        for q in range(4):
            est = unbiased_estimates(sigma, 5, 12, q, 10, seed=3)
            means.append(est.mean.copy())
        for a, b in zip(means, means[1:]):
            assert (b <= a + 1e-12).all()

    def test_shape_and_order(self):
        sigma = 1 / np.arange(1.0, 61.0)
        est = unbiased_estimates(sigma, 6, 15, 1, 7, seed=4)
        assert est.mean.shape == (6,)
        assert (np.diff(est.mean) >= -1e-12).all()
        assert (est.min <= est.mean).all() and (est.mean <= est.max).all()
        assert (est.max <= 1.0).all() and (est.min > 0).all()

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_vanishing_tail_at_higher_q(self, q, side):
        # tail weights near 1e-27..1e-54 keep full rank relative to their own norm
        sigma = np.r_[np.ones(4), np.full(40, 1e-9)]
        est = unbiased_estimates(sigma, 4, 8, q, 3, seed=2, side=side)
        assert est.max.max() < 1e-20

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("profile", [SlowDecay(r1=20), FastDecay(r1=20),
                                         StepSpectrum(k=10, sigma1=1.5)])
    def test_matches_svd_oracle(self, profile, q, side):
        sigma = spectrum_values(profile, 120)
        est = unbiased_estimates(sigma, 10, 30, q, 4, seed=5, side=side)
        sines = unbiased_sines_svd(sigma, 10, 30, q, 4, seed=5, side=side)
        for got, want in ((est.mean, sines.mean(axis=0)), (est.min, sines.min(axis=0)),
                          (est.max, sines.max(axis=0))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_tail_rank_requirement(self):
        with pytest.raises(TailRankDeficient):
            unbiased_estimates(np.ones(20), 10, 15, 0, 2, seed=0)

    def test_rank_losing_tail(self):
        # seven tail values at 0.5 and the rest at 1e-9: an 8-column tail of rank 7
        sigma = np.r_[np.ones(4), np.full(7, 0.5), np.full(40, 1e-9)]
        with pytest.raises(TailRankDeficient):
            unbiased_estimates(sigma, 4, 8, 1, 2, seed=0)

    @pytest.mark.parametrize("sigma", [np.ones((3, 20)), np.r_[0.0, np.ones(19)],
                                       np.r_[np.ones(19), np.nan], np.r_[np.inf, np.ones(19)],
                                       np.r_[-1.0, np.ones(19)]])
    def test_rejects_bad_spectrum(self, sigma):
        with pytest.raises(BadShape, match="sigma"):
            unbiased_estimates(sigma, 2, 4, 0, 2, seed=0)

    @pytest.mark.parametrize("k", [-2, -1, 0])
    def test_rejects_bad_k(self, k):
        with pytest.raises(BadShape, match=f"k={k}"):
            unbiased_estimates(np.ones(20), k, 4, 0, 2, seed=0)

    def test_trial_count_reported(self):
        est = unbiased_estimates(np.ones(50), 5, 10, 0, 6, seed=1)
        assert est.n_trials == 6


class TestPosteriorSimple:
    def test_exact_basis_gives_zero(self):
        rng = np.random.default_rng(5)
        A = random_matrix(rng, 20, 15, rank=6)
        U = np.linalg.qr(A)[0][:, :6]
        sigma = np.linalg.svd(A, compute_uv=False)
        b = posterior_simple(A, U, sigma, 4, side="left")
        assert b.max() < 1e-10

    def test_index_k_formula_identity(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((15, 12))
        lr = randomized_svd(A, 6, q=0, seed=7)
        sigma = np.linalg.svd(A, compute_uv=False)
        k = 4
        b = posterior_simple(A, lr.U_hat, sigma, k, side="left")
        E = A - lr.U_hat @ (lr.U_hat.T @ A)
        s_res = np.linalg.svd(E, compute_uv=False)
        assert b[k - 1] == pytest.approx(min(s_res[0] / sigma[k - 1], 1.0))

    @pytest.mark.parametrize("side, rows", [("left", 14), ("right", 15)])
    def test_basis_of_wrong_length_rejected(self, side, rows):
        A = np.random.default_rng(8).standard_normal((15, 12))
        with pytest.raises(ShapeMismatch, match=f"{side} basis rows"):
            posterior_simple(A, np.eye(rows, 3), np.ones(12), 2, side=side)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_overflowing_residual_rejected(self, side):
        # finite inputs whose residual leaves the float range: an error, not NaN
        A = np.full((6, 5), 1e308)
        basis = np.linalg.qr(np.eye(6 if side == "left" else 5, 2) + 1.0)[0]
        with pytest.raises(BadShape, match="non-finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                posterior_simple(A, basis, np.ones(5), 2, side=side)

    def test_dominates_true_sines(self):
        # deterministic theorem: holds in every seeded run
        for seed in range(100):
            rng = np.random.default_rng(seed)
            A = random_matrix(rng, 150, 120,
                              spectrum=np.logspace(0, -2, 60))
            U0, sigma, V0t = np.linalg.svd(A, full_matrices=False)
            k, l = 10, 25
            lr = randomized_svd(A, l, q=0, seed=seed)
            for side, basis, truth in (
                ("left", lr.U_hat, canonical_angles(lr.U_hat, U0[:, :k])),
                ("right", lr.V_hat, canonical_angles(lr.V_hat, V0t.T[:, :k])),
            ):
                b = posterior_simple(A, basis, sigma, k, side=side)
                assert (b >= truth - 1e-12).all()


class TestPosteriorGap:
    def test_exact_rank_l_all_zero(self):
        rng = np.random.default_rng(8)
        A = random_matrix(rng, 30, 25, rank=6)
        lr = randomized_svd(A, 6, q=1, seed=9)
        sigma = np.linalg.svd(A, compute_uv=False)
        rep = posterior_gap(A, lr, sigma, 4)
        assert rep.valid
        assert rep.big_gamma1 == pytest.approx(sigma[3])
        assert rep.bounds["Uk_Ul_fro"] < 1e-9
        assert max(rep.anglewise["Uk_Ul"].max(), rep.anglewise["Vk_Vl"].max()) < 1e-9

    def test_gamma2_arithmetic(self):
        # ||E33|| = s_k / 2 -> Gamma2 = 1.5 s_k
        s_k = 2.0
        e33 = s_k / 2
        assert (s_k ** 2 - e33 ** 2) / e33 == pytest.approx(1.5 * s_k)

    def test_invalid_flag_instead_of_raise(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((30, 30))  # flat spectrum: gap condition fails
        lr = randomized_svd(A, 8, q=0, seed=11)
        sigma = np.linalg.svd(A, compute_uv=False)
        rep = posterior_gap(A, lr, sigma, 6)
        assert rep.valid in (True, False)  # report always comes back
        if not rep.valid:
            assert rep.norm_E33_spec >= 0

    def test_bounds_dominate_when_valid(self):
        rng = np.random.default_rng(12)
        spectrum = np.r_[np.ones(5), 0.97 ** np.arange(80)]
        A = random_matrix(rng, 120, 100, spectrum=spectrum)
        U0, sigma, V0t = np.linalg.svd(A, full_matrices=False)
        k, l = 5, 20
        checked = 0
        for seed in range(20):
            lr = randomized_svd(A, l, q=1, seed=seed)
            rep = posterior_gap(A, lr, sigma, k)
            if not rep.valid:
                continue
            checked += 1
            tl = canonical_angles(lr.U_hat, U0[:, :k])
            tr = canonical_angles(lr.V_hat, V0t.T[:, :k])
            assert (np.minimum(rep.anglewise["Uk_Ul"], 1.0) >= tl - 1e-12).all()
            assert (np.minimum(rep.anglewise["Vk_Vl"], 1.0) >= tr - 1e-12).all()
            assert rep.bounds["Uk_Ul_spec"] >= tl.max() - 1e-12
            assert rep.bounds["Vk_Vl_spec"] >= tr.max() - 1e-12
        assert checked >= 16  # favorable regime: flag true in >= 80% of runs


class TestPosteriorIndexRange:
    """k must satisfy 1 <= k <= min(m, n) in every posterior entry point."""

    @pytest.mark.parametrize("k", [0, -1, 6, 7])
    def test_simple_rejects_k(self, k):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((10, 5))
        lr = randomized_svd(A, 4, q=0, seed=15)
        with pytest.raises(BadShape):
            posterior_simple(A, lr.U_hat, np.linspace(3, 1, 10), k, side="left")

    @pytest.mark.parametrize("k", [0, -1, 6])
    @pytest.mark.parametrize("entry", ["gap", "residuals"])
    def test_gap_and_residuals_reject_k(self, entry, k):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((10, 5))
        lr = randomized_svd(A, 4, q=0, seed=17)
        with pytest.raises(BadShape):
            if entry == "gap":
                posterior_gap(A, lr, np.linspace(3, 1, 10), k)
            else:
                posterior_residuals(A, lr, k)


class TestPosteriorResiduals:
    def test_run_angles_rows_equal_direct_calls(self):
        # q=2 makes every gap condition hold and every gap row fall below 1,
        # so the rows carry the residual norms instead of the clip value
        matrix, seed = "gauss:60x50,profile=slow,r=45", 7
        k, l, q = 5, 20, 2
        cfg = build_config("angles", make_parser().parse_args(
            ["angles", "--matrix", matrix, "--ranks", str(l), "--q", str(q), "--trials", "1",
             "--seed", str(seed), "--k", str(k), "--estimate-trials", "2"]))
        rows = run_angles(cfg)
        got = {(r.method, r.metric): r.value for r in rows}

        bundle = realize_matrix(matrix, seed=seed)
        A = bundle.dense()
        sigma = bundle.exact_factors()[1]
        lr = randomized_svd(A, l, q=q, seed=_run_seed(seed, l, q, 0))
        spectra = {"sigma": sigma, "padded": pad_spectrum(lr.sigma_hat, sigma.size)}
        for tag, spec in spectra.items():
            for side, basis in (("left", lr.U_hat), ("right", lr.V_hat)):
                want = posterior_simple(A, basis, spec, k, side=side)
                assert [got[(f"posterior_residual_{tag}", f"{side}_sin_{i + 1:03d}")]
                        for i in range(k)] == want.tolist()
            rep = posterior_gap(A, lr, spec, k)
            for side, key in (("left", "Uk_Ul"), ("right", "Vk_Vl")):
                want = np.minimum(rep.anglewise[key], 1.0)
                assert [got[(f"posterior_gap_{tag}", f"{side}_sin_{i + 1:03d}")]
                        for i in range(k)] == want.tolist()
            assert got[(f"posterior_gap_{tag}", "gap_valid")] == float(rep.valid)

    def test_measured_once_equals_wrappers(self):
        rng = np.random.default_rng(18)
        A = random_matrix(rng, 40, 30, spectrum=np.logspace(0, -3, 30))
        k = 4
        lr = randomized_svd(A, 10, q=0, seed=19)
        sigma = np.linalg.svd(A, compute_uv=False)
        res = posterior_residuals(A, lr, k)
        for spec in (sigma, pad_spectrum(lr.sigma_hat, sigma.size)):
            for side, basis in (("left", lr.U_hat), ("right", lr.V_hat)):
                assert np.array_equal(res.simple(spec, side),
                                      posterior_simple(A, basis, spec, k, side=side))
            rep, direct = res.gap(spec), posterior_gap(A, lr, spec, k)
            assert rep.norm_E33_spec == direct.norm_E33_spec == res.right[0]
            assert rep.bounds == direct.bounds
            for key, val in direct.anglewise.items():
                assert np.array_equal(rep.anglewise[key], val)

    def test_zero_gamma2_is_invalid_not_an_error(self):
        # sigma_k equal to the approximated sigma_{k+1}: gamma2 is 0
        rng = np.random.default_rng(18)
        A = random_matrix(rng, 40, 30, spectrum=np.logspace(0, -3, 30))
        k = 4
        lr = randomized_svd(A, 10, q=0, seed=19)
        sigma = np.linalg.svd(A, compute_uv=False)
        sigma[:k] = lr.sigma_hat[k]
        rep = posterior_residuals(A, lr, k).gap(sigma)
        assert rep.gamma2 == 0.0 and not rep.valid
        assert rep.bounds["Uk_Uk_fro"] == rep.bounds["Uk_Uk_spec"] == np.inf

    def test_peak_memory_of_one_call(self):
        # the gap blocks die before the two m x n residuals are formed: the
        # traced peak is one residual, its Fortran copy and the SVD workspace
        m, n = 300, 200
        A = np.random.default_rng(21).standard_normal((m, n))
        lr = randomized_svd(A, 60, q=0, seed=22)
        tracemalloc.start()
        try:
            posterior_residuals(A, lr, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * m * n


class TestRightVersusLeft:
    def test_right_angles_smaller_statistically(self):
        # the right factor gets half an extra iteration; medians over 20 seeds
        rng = np.random.default_rng(13)
        A = random_matrix(rng, 150, 150, spectrum=1 / np.sqrt(np.arange(1, 121)))
        U0, sigma, V0t = np.linalg.svd(A, full_matrices=False)
        k, l = 10, 30
        lefts, rights = [], []
        for seed in range(20):
            lr = randomized_svd(A, l, q=0, seed=seed)
            lefts.append(canonical_angles(lr.U_hat, U0[:, :k]))
            rights.append(canonical_angles(lr.V_hat, V0t.T[:, :k]))
        med_l = np.median(lefts, axis=0)
        med_r = np.median(rights, axis=0)
        assert (med_r <= med_l + 1e-12).all()


class TestPadSpectrum:
    def test_padding(self):
        s = pad_spectrum(np.array([3.0, 2.0, 1.0]), 6)
        assert np.array_equal(s, [3, 2, 1, 1, 1, 1])

    def test_too_short(self):
        with pytest.raises(BadShape):
            pad_spectrum(np.array([1.0, 2.0, 3.0]), 2)


class TestBalancePhi:
    def test_gap_one_increasing_in_q(self):
        bal = BalanceConfig(k=10, alpha=16, beta=32, gamma=1.05, gap=1.0)
        phis = [balance_phi(bal, q) for q in bal.admissible_q()]
        assert all(b > a for a, b in zip(phis, phis[1:]))

    def test_argmin_flips_with_gap(self):
        small = BalanceConfig(k=10, alpha=16, beta=32, gamma=1.05, gap=1.01)
        large = BalanceConfig(k=10, alpha=16, beta=32, gamma=1.05, gap=1.5)
        qs = small.admissible_q()
        assert qs[int(np.argmin([balance_phi(small, q) for q in qs]))] == 0
        assert qs[int(np.argmin([balance_phi(large, q) for q in qs]))] == max(qs)

    def test_closed_forms_agree(self):
        for gap in (1.01, 1.2, 1.5):
            bal = BalanceConfig(k=10, alpha=16, beta=32, gamma=1.05, gap=gap)
            for q in bal.admissible_q():
                assert balance_phi(bal, q) == pytest.approx(
                    balance_phi_from_l(bal, q), abs=1e-12)

    def test_values_in_unit_interval(self):
        bal = BalanceConfig(k=10, alpha=32, beta=64, gamma=2.0, gap=1.3)
        for q in bal.admissible_q():
            assert 0 < balance_phi(bal, q) < 1

    def test_inadmissible_q(self):
        bal = BalanceConfig(k=10, alpha=16, beta=32, gamma=1.05, gap=1.5)
        with pytest.raises(InadmissibleQ):
            balance_phi(bal, bal.max_q() + 1)

    def test_power_past_float_range_gives_limit(self):
        # gap^(4q+2) leaves float range from q = 676 on
        bal = BalanceConfig(k=3, alpha=6e6, beta=6, gamma=1.05, gap=1.3)
        for phi in (balance_phi, balance_phi_from_l):
            phis = [phi(bal, q) for q in (0, 600, 675, 676, 677, 5000, bal.max_q())]
            assert all(b <= a for a, b in zip(phis, phis[1:]))
            assert phis[-1] == 0.0 and 0 < phis[3] < 1e-150
            assert phis[3] == pytest.approx(phis[2] / 1.3 ** 2, rel=1e-9)
        assert balance_phi(bal, 676) == pytest.approx(balance_phi_from_l(bal, 676), rel=1e-12)

    @pytest.mark.parametrize("gap", [1.5, 1e6])
    def test_edge_of_admissible_range_gives_one(self, gap):
        # 2q+1 = alpha/gamma^2 at q=9: the coefficient is 0 but rounds below it
        bal = BalanceConfig(k=3, alpha=19 * 1.05 ** 2, beta=6, gamma=1.05, gap=gap)
        assert bal.max_q() == 9
        assert balance_phi(bal, 9) == balance_phi_from_l(bal, 9) == 1.0


_A = np.random.default_rng(32).standard_normal((8, 6))
_LR = randomized_svd(_A, 4, seed=1)
_SIGMA = np.linalg.svd(_A, compute_uv=False)
_INF_SIGMA = np.concatenate([[np.inf], _SIGMA[1:]])
_OMEGAS = np.ones((2, 3)), np.ones((1, 3))
#: Every reader of a posterior spectrum, on a spectrum of at least k = 2 entries.
_POSTERIOR_CALLS = {
    "posterior-simple": lambda sigma: posterior_simple(_A, _LR.U_hat, sigma, 2),
    "posterior-gap": lambda sigma: posterior_gap(_A, _LR, sigma, 2),
    "residuals-simple": lambda sigma: posterior_residuals(_A, _LR, 2).simple(sigma),
    "residuals-gap": lambda sigma: posterior_residuals(_A, _LR, 2).gap(sigma),
}
_BALANCE = dict(k=2, alpha=8, beta=1, gamma=1.1, gap=2)
_BAL = BalanceConfig(**_BALANCE)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: PriorBoundInputs(sigma=_SIGMA, k=1, l=2, q=0, side="up"), BadShape,
                 id="side"),
    pytest.param(lambda: posterior_simple(_A, _LR.U_hat, _SIGMA, 2, side="up"), BadShape,
                 id="posterior-simple-side"),
    pytest.param(lambda: pad_spectrum([], 5), BadShape, id="pad-empty"),
    pytest.param(lambda: pad_spectrum(np.ones((2, 2)), 5), BadShape, id="pad-matrix"),
    pytest.param(lambda: PriorBoundInputs(sigma=_SIGMA[::-1], k=1, l=2, q=0), BadShape,
                 id="prior-increasing-spectrum"),
    pytest.param(lambda: PriorBoundInputs(sigma=_SIGMA, k=1, l=2, q=-1), BadShape,
                 id="prior-q<0"),
    pytest.param(lambda: PriorBoundInputs(sigma=_SIGMA, k=1, l=2, q=0, eps1_lower=0.0),
                 DistortionOutOfRange, id="prior-eps1-lower"),
    pytest.param(lambda: prior_reference_bound(_SIGMA[:2], 2, 3, 0, np.ones((2, 3)),
                                               np.ones((1, 3))), EmptyTail,
                 id="reference-empty-tail"),
    pytest.param(lambda: unbiased_estimates(np.ones(3), 3, 4, 0, 2), EmptyTail,
                 id="estimates-empty-tail"),
    pytest.param(lambda: unbiased_estimates(_SIGMA, 1, 2, 0, 0), BadShape,
                 id="estimates-no-trials"),
    pytest.param(lambda: posterior_simple(_A, _LR.U_hat, _SIGMA[:1], 2), ShapeMismatch,
                 id="spectrum-shorter-than-k"),
    *[pytest.param(lambda call=call, bad=bad: call([1.0, bad, 1.0, 1.0]), names("sigma", "finite"),
                   id=f"{label}-{tag}-spectrum")
      for label, call in _POSTERIOR_CALLS.items()
      for tag, bad in (("nan", np.nan), ("inf", np.inf), ("zero", 0.0))],
    pytest.param(lambda: posterior_gap(_A, "lr", _SIGMA, 2), BadShape, id="lr-type"),
    pytest.param(lambda: posterior_gap(_A, randomized_svd(_A, 2, seed=0), _SIGMA, 2), BadShape,
                 id="l<=k"),
    pytest.param(lambda: posterior_gap(_A[:7], _LR, _SIGMA, 2), ShapeMismatch,
                 id="factors-do-not-fit"),
    pytest.param(lambda: posterior_residuals(_A[:, :5], _LR, 2), ShapeMismatch,
                 id="residual-factors-do-not-fit"),
    pytest.param(lambda: BalanceConfig(k=2, alpha=8, beta=1, gamma=1.0, gap=2), BadShape,
                 id="balance-gamma"),
    pytest.param(lambda: BalanceConfig(k=0, alpha=8, beta=1, gamma=1.1, gap=2), BadShape,
                 id="balance-k"),
    pytest.param(lambda: BalanceConfig(k=2, alpha=8, beta=1, gamma=1.1, gap=-1), BadShape,
                 id="balance-gap"),
    pytest.param(lambda: BalanceConfig(k=2, alpha=8, beta=1, gamma=1.1, gap=np.nan),
                 names("gap", "finite"), id="balance-gap-nan"),
    pytest.param(lambda: BalanceConfig(k=2, alpha=np.inf, beta=1, gamma=1.1, gap=2),
                 names("alpha", "finite"), id="balance-alpha-inf"),
    *size_cases("balance-k", "k", lambda k: BalanceConfig(k=k, alpha=8, beta=1, gamma=1.1, gap=2),
                2, 0),
    *[pytest.param(lambda name=name: BalanceConfig(**{**_BALANCE, name: "2"}),
                   names(name, "finite and above"), id=f"balance-{name}-text")
      for name in ("alpha", "beta", "gamma", "gap")],
    pytest.param(lambda: BalanceConfig(**{**_BALANCE, "beta": True}),
                 names("beta", "finite and above"), id="balance-beta-bool"),
    *[pytest.param(lambda name=name: PriorBoundInputs(sigma=_SIGMA, k=1, l=2, q=0,
                                                      **{name: "0.5"}),
                   names(name, "a finite real number"), id=f"prior-{name}-text")
      for name in ("eps1", "eps2", "eps1_lower", "eps2_lower")],
    pytest.param(lambda: PriorBoundInputs(sigma=_SIGMA, k=1, l=2, q=0, eps2_lower=np.nan),
                 names("eps2_lower", "a finite real number"), id="prior-eps2-lower-nan"),
    *size_cases("phi-q", "q", lambda q: balance_phi(_BAL, q), 0, -1),
    pytest.param(lambda: PriorBoundInputs(sigma=_INF_SIGMA, k=1, l=2, q=0),
                 names("sigma", "finite"), id="prior-inf-spectrum"),
    pytest.param(lambda: unbiased_estimates(_INF_SIGMA, 1, 2, 0, 2), names("sigma", "finite"),
                 id="estimates-inf-spectrum"),
    *size_cases("pad-r", "r", lambda r: pad_spectrum(_SIGMA, r), 7, 5),
    *size_cases("flatness-k", "k", lambda k: tail_flatness(_SIGMA, k, 0), 2, 0),
    *size_cases("flatness-q", "q", lambda q: tail_flatness(_SIGMA, 2, q), 1, -1),
    *size_cases("prior-k", "k", lambda k: PriorBoundInputs(sigma=_SIGMA, k=k, l=3, q=0), 1, 3),
    *size_cases("prior-l", "l", lambda l: PriorBoundInputs(sigma=_SIGMA, k=1, l=l, q=0), 3, 6),
    *size_cases("prior-q", "q", lambda q: PriorBoundInputs(sigma=_SIGMA, k=1, l=3, q=q), 1, -1),
    *size_cases("reference-k", "k", lambda k: prior_reference_bound(_SIGMA, k, 3, 0, *_OMEGAS),
                2, 0),
    *size_cases("reference-l", "l", lambda l: prior_reference_bound(_SIGMA, 2, l, 0, *_OMEGAS),
                3, 0),
    *size_cases("reference-q", "q", lambda q: prior_reference_bound(_SIGMA, 2, 3, q, *_OMEGAS),
                1, -1),
    *size_cases("estimates-k", "k", lambda k: unbiased_estimates(_SIGMA, k, 2, 0, 2), 1, 2),
    *size_cases("estimates-l", "l", lambda l: unbiased_estimates(_SIGMA, 1, l, 0, 2), 2, 1),
    *size_cases("estimates-q", "q", lambda q: unbiased_estimates(_SIGMA, 1, 2, q, 2), 1, -1),
    *size_cases("estimates-trials", "n_trials", lambda t: unbiased_estimates(_SIGMA, 1, 2, 0, t),
                2, 0),
    *size_cases("posterior-simple-k", "k", lambda k: posterior_simple(_A, _LR.U_hat, _SIGMA, k),
                2, 7),
    *size_cases("posterior-gap-k", "k", lambda k: posterior_gap(_A, _LR, _SIGMA, k), 2, 4),
    *size_cases("residuals-k", "k", lambda k: posterior_residuals(_A, _LR, k), 2, 0),
])
def test_documented_errors(call, error):
    with error if isinstance(error, pytest.RaisesExc) else pytest.raises(error):
        call()
