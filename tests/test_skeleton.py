import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

from randskel import (
    SnnParams,
    build_column_id,
    build_cur_stable,
    build_row_id,
    build_two_sided_id,
    cpqr,
    estimate_cur_from_skeletons,
    gen_snn,
    lupp,
    make_embedding,
    posterior_eta,
    power_iter_plain,
    select_columns_cpqr,
    select_columns_lupp,
    select_deim,
    select_leverage,
    select_streaming,
    snn_weights,
    streaming_interp_coeffs,
    svd_thin,
)
from randskel.errors import (
    BadShape,
    DegenerateDistribution,
    RankDeficient,
    ShapeMismatch,
    SingularSkeleton,
    StreamExhausted,
)
from randskel.dense import as_operator
from randskel.skeleton import _column_pivots, _sample_without_replacement
from oracles import (
    MatvecOnly,
    column_skeleton_residual,
    cur_residual,
    names,
    random_matrix,
    residual_norms,
    row_skeleton_residual,
    size_cases,
    truncated_svd_error,
)


def snn_300(seed=42, density=0.008):
    params = SnnParams(m=300, n=300, r=300, s=snn_weights(2, 100, 300),
                       density=density, seed=seed)
    return gen_snn(params)


class TestPosteriorEta:
    def test_zero_tail(self):
        X = np.hstack([np.eye(4), np.zeros((4, 3))])
        assert posterior_eta(X, np.arange(4)) == 1.0

    def test_duplicated_block(self):
        X = np.hstack([np.eye(4), np.eye(4)])
        assert abs(posterior_eta(X, np.arange(4)) - np.sqrt(2)) < 1e-12

    def test_theorem_holds_deterministically(self):
        # the skeleton error never exceeds eta times the range error, either norm
        for seed in range(100):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((20, 15))
            X = rng.standard_normal((5, 15))
            J = lupp_pivots_of(X)
            eta = posterior_eta(X, J)
            skel_f, skel_2 = column_skeleton_residual(A, J)
            rng_f, rng_2 = residual_norms(A, X)
            assert skel_f <= eta * rng_f * (1 + 1e-10)
            assert skel_2 <= eta * rng_2 * (1 + 1e-10)

    def test_singular_pivot_block(self):
        X = np.zeros((3, 6))
        X[0, 0] = 1.0
        from randskel.errors import SingularPivotBlock
        with pytest.raises(SingularPivotBlock):
            posterior_eta(X, np.array([0, 1, 2]))


def lupp_pivots_of(X):
    from randskel import lupp
    return lupp(X.T).perm[: X.shape[0]]


class TestColumnPivots:
    RANKS = {"full": 8, "duplicate": 3, "zero": 0}

    @staticmethod
    def sketch(case):
        X = np.random.default_rng(9).standard_normal((8, 30))
        if case == "duplicate":
            return X[:, np.arange(30) % 3]  # three distinct columns: rank 3
        return np.zeros_like(X) if case == "zero" else X

    @pytest.mark.parametrize("case", ["full", "duplicate", "zero"])
    def test_lupp_pivots_equal_lupp(self, case):
        X = self.sketch(case)
        try:
            fac = lupp(X.T)
        except RankDeficient as exc:
            fac = exc.partial
        J, rank = _column_pivots("lupp", X, 8)
        assert rank == fac.rank_detected == self.RANKS[case]
        assert np.array_equal(J, fac.perm[:rank])

    @pytest.mark.parametrize("case", ["full", "duplicate", "zero"])
    def test_cpqr_pivots_equal_cpqr(self, case):
        X = self.sketch(case)
        fac = cpqr(X)
        J, rank = _column_pivots("cpqr", X, 8)
        assert rank == fac.rank_detected == self.RANKS[case]
        assert np.array_equal(J, fac.perm[:rank])


class TestSelectLupp:
    def test_identity_support_recovered(self):
        l = 5
        A = np.zeros((12, 9))
        A[:l, :l] = np.eye(l)
        sel = select_columns_lupp(A, l, 0, seed=0)
        assert set(sel.J_s) == set(range(l))

    def test_sparse_sign_at_one_column(self):
        # at l = 1 the sparse sign holds one sign per column
        A = np.diag([1.0, 3.0, 2.0, 0.5])
        sel = select_columns_lupp(A, 1, embedding="sparse_sign", seed=0)
        assert list(sel.J_s) == list(sel.I_s) and sel.J_s.size == 1

    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(1)
        k = 6
        A = random_matrix(rng, 40, 30, rank=k)
        sel = select_columns_lupp(A, k, 0, seed=2)
        err_f, _ = column_skeleton_residual(A, sel.J_s)
        assert err_f < 1e-8 * np.linalg.norm(A)

    def test_snn_error_close_to_optimal(self):
        # 20-seed median within 1.5x of the rank-l truncated-SVD error
        A = snn_300()
        sigma = svd_thin(A).sigma
        l = 60
        errs = []
        for seed in range(20):
            sel = select_columns_lupp(A, l, 0, seed=seed)
            errs.append(column_skeleton_residual(A, sel.J_s)[0])
        assert np.median(errs) <= 1.5 * truncated_svd_error(sigma, l)

    def test_q_validated(self):
        with pytest.raises(BadShape):
            select_columns_lupp(np.eye(5), 2, q=2, seed=0)

    def test_truncates_on_low_rank(self):
        rng = np.random.default_rng(3)
        A = random_matrix(rng, 30, 20, rank=4)
        sel = select_columns_lupp(A, 10, 0, seed=4)
        assert sel.rank_detected <= 5  # sketch rank caps at rank(A)
        assert len(sel.J_s) == sel.rank_detected
        assert len(sel.I_s) == len(sel.J_s)
        # the zero matrix truncates to an empty skeleton with eta = 1
        for select in (select_columns_lupp, select_columns_cpqr):
            sel = select(np.zeros((30, 20)), 10, 0, seed=4)
            assert sel.rank_detected == 0
            assert sel.J_s.size == sel.I_s.size == 0
            assert sel.eta_column == 1.0

    def test_skeleton_full_column_rank(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((50, 35))
        for seed in range(25):
            sel = select_columns_lupp(A, 8, 0, seed=seed)
            C = A[:, sel.J_s]
            assert np.linalg.matrix_rank(C, tol=1e-10) == 8

    def test_indices_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((30, 22))
        a = select_columns_lupp(A, 6, 0, seed=7)
        b = select_columns_lupp(4.0 * A, 6, 0, seed=7)
        assert np.array_equal(a.J_s, b.J_s)
        assert np.array_equal(a.I_s, b.I_s)

    def test_theorem_bound_with_exposed_sketch(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((40, 28))
        for seed in range(10):
            for q in (0, 1):
                sel = select_columns_lupp(A, 7, q, seed=seed)
                skel_f, skel_2 = column_skeleton_residual(A, sel.J_s)
                rng_f, rng_2 = residual_norms(A, sel.X)
                assert skel_f <= sel.eta_column * rng_f * (1 + 1e-10)
                assert skel_2 <= sel.eta_column * rng_2 * (1 + 1e-10)


class TestSelectCpqr:
    def test_identity_support_recovered(self):
        l = 5
        A = np.zeros((12, 9))
        A[:l, :l] = np.eye(l)
        sel = select_columns_cpqr(A, l, 0, seed=0)
        assert set(sel.J_s) == set(range(l))

    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(9)
        A = random_matrix(rng, 40, 30, rank=6)
        sel = select_columns_cpqr(A, 6, 0, seed=1)
        err_f, _ = column_skeleton_residual(A, sel.J_s)
        assert err_f < 1e-8 * np.linalg.norm(A)

    def test_statistically_indistinguishable_from_lupp(self):
        # interquartile ranges overlap at every tested rank, 20 seeds
        A = snn_300()
        for l in (20, 60):
            e_lupp, e_cpqr = [], []
            for seed in range(20):
                a = select_columns_lupp(A, l, 0, seed=seed)
                b = select_columns_cpqr(A, l, 0, seed=seed)
                e_lupp.append(column_skeleton_residual(A, a.J_s)[0])
                e_cpqr.append(column_skeleton_residual(A, b.J_s)[0])
            lo_a, hi_a = np.percentile(e_lupp, [25, 75])
            lo_b, hi_b = np.percentile(e_cpqr, [25, 75])
            assert max(lo_a, lo_b) <= min(hi_a, hi_b)


class TestSelectDeim:
    def test_coordinate_right_vectors(self):
        # right singular vectors aligned with coordinates: pivots = leading coords
        m, n, r = 30, 20, 8
        rng = np.random.default_rng(10)
        U = np.linalg.qr(rng.standard_normal((m, r)))[0]
        sigma = np.array([10.0, 8.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        A = (U * sigma) @ np.eye(n)[:, :r].T
        l = 4
        sel = select_deim(A, l, q=1, seed=11)
        assert set(sel.J_s) <= set(range(r))
        assert set(sel.J_s) == set(range(l))

    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(12)
        A = random_matrix(rng, 40, 30, rank=6)
        sel = select_deim(A, 6, 0, seed=13)
        err_f, _ = column_skeleton_residual(A, sel.J_s)
        assert err_f < 1e-8 * np.linalg.norm(A)


class TestSelectLeverage:
    def test_point_mass(self):
        u = np.arange(1.0, 9.0)
        A = np.outer(u, np.eye(6)[2])  # only column 3 (index 2) is nonzero
        sel = select_leverage(A, 1, 1, seed=0)
        assert sel.J_s[0] == 2

    def test_uniform_leverage_frequencies(self):
        # Fourier cos/sin pairs give exactly equal row norms, hence exactly
        # uniform leverage: selection frequencies stay within 3 sigma
        n, k = 20, 4
        l = 4
        j = np.arange(n)
        cols = []
        for f in (1, 2):
            cols.append(np.sqrt(2 / n) * np.cos(2 * np.pi * f * j / n))
            cols.append(np.sqrt(2 / n) * np.sin(2 * np.pi * f * j / n))
        V = np.column_stack(cols)
        assert (V ** 2).sum(axis=1).std() < 1e-12
        rng = np.random.default_rng(14)
        U = np.linalg.qr(rng.standard_normal((30, k)))[0]
        A = (U * np.array([5.0, 4.0, 3.0, 2.5])) @ V.T
        counts = np.zeros(n)
        trials = 5000
        for seed in range(5000, 5000 + trials):
            sel = select_leverage(A, k, l, seed=seed)
            counts[sel.J_s] += 1
        p = l / n
        se = np.sqrt(trials * p * (1 - p))
        assert np.abs(counts - trials * p).max() < 3 * se

    def test_requires_k_le_l(self):
        with pytest.raises(BadShape):
            select_leverage(np.eye(5), 3, 2, seed=0)

    def test_degenerate_scores(self):
        with pytest.raises((DegenerateDistribution, Exception)):
            select_leverage(np.zeros((5, 5)), 1, 1, seed=0)

    def test_median_error_not_better_than_lupp(self):
        A = snn_300()
        l = 40
        e_ls, e_lupp = [], []
        for seed in range(20):
            try:
                sel = select_leverage(A, l, l, seed=seed)
                e_ls.append(cur_residual(A, sel.I_s, sel.J_s)[0])
            except SingularSkeleton:
                e_ls.append(np.inf)
            sel2 = select_columns_lupp(A, l, 0, seed=seed)
            e_lupp.append(cur_residual(A, sel2.I_s, sel2.J_s)[0])
        assert np.median(e_ls) >= np.median(e_lupp)


class TestSelectStreaming:
    def test_single_block_matches_batch(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((40, 30))
        stream = select_streaming([A], 6, seed=16, m=40, n=30)
        batch = select_columns_lupp(A, 6, 0, seed=16)
        assert np.array_equal(stream.J_s, batch.J_s)

    def test_split_invariance_bitwise(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((25, 90))
        one = select_streaming([A], 8, seed=18, m=25, n=90)
        for cut in (1, 37, 64, 89):
            two = select_streaming([A[:, :cut], A[:, cut:]], 8, seed=18, m=25, n=90)
            assert np.array_equal(one.X, two.X)
            assert np.array_equal(one.Y, two.Y)
            assert np.array_equal(one.J_s, two.J_s)
            assert np.array_equal(one.I_s, two.I_s)

    def test_short_stream_raises(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((10, 20))
        with pytest.raises(StreamExhausted):
            select_streaming([A[:, :15]], 3, seed=0, m=10, n=20)

    def test_id_estimate_within_factor_two(self):
        # rank-deficient-plus-noise input: the sketch-only coefficient
        # estimate lands within 2x of the exact interpolation residual
        # (median over stream seeds on a fixed instance)
        rng = np.random.default_rng(100)
        A = random_matrix(rng, 200, 200, rank=40) + 0.1 * rng.standard_normal((200, 200))
        l = 20
        ratios = []
        for seed in range(5):
            sel = select_streaming([A[:, :100], A[:, 100:]], l, seed=seed, m=200, n=200)
            coeffs = streaming_interp_coeffs(sel)
            est_err = np.linalg.norm(A - A[:, sel.J_s] @ coeffs)
            exact_err = column_skeleton_residual(A, sel.J_s)[0]
            ratios.append(est_err / exact_err)
        assert np.median(ratios) <= 2.0

    def test_eta_pair_reported(self):
        rng = np.random.default_rng(22)
        A = rng.standard_normal((30, 45))
        sel = select_streaming([A], 5, seed=23, m=30, n=45)
        assert sel.eta_column >= 1.0
        assert sel.eta_row >= 1.0
        assert sel.Y.shape == (30, 5)

    def test_cpqr_pivot_variant(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((20, 35))
        sel = select_streaming([A], 4, seed=25, pivot="cpqr", m=20, n=35)
        assert len(sel.J_s) == 4 and len(sel.I_s) == 4


class TestBuilders:
    def test_column_id_full_index_set(self):
        rng = np.random.default_rng(26)
        A = rng.standard_normal((8, 6))
        cid = build_column_id(A, np.arange(6))
        assert np.abs(cid.reconstruct(A) - A).max() < 1e-10

    def test_interpolation_property(self):
        rng = np.random.default_rng(27)
        A = rng.standard_normal((30, 20))
        J = select_columns_lupp(A, 6, 0, seed=28).J_s
        cid = build_column_id(A, J)
        assert np.abs(cid.coeffs[:, J] - np.eye(6)).max() < 1e-10

    def test_row_id(self):
        rng = np.random.default_rng(29)
        A = rng.standard_normal((25, 18))
        sel = select_columns_lupp(A, 5, 0, seed=30)
        rid = build_row_id(A, sel.I_s)
        assert np.abs(rid.coeffs[sel.I_s, :] - np.eye(5)).max() < 1e-10
        want = row_skeleton_residual(A, sel.I_s)[0]
        got = np.linalg.norm(A - rid.reconstruct(A))
        assert abs(got - want) < 1e-9

    def test_two_sided_equals_column_id(self):
        rng = np.random.default_rng(31)
        A = random_matrix(rng, 100, 80, spectrum=np.logspace(0, -3, 40))
        sel = select_columns_lupp(A, 20, 0, seed=32)
        cid = build_column_id(A, sel.J_s)
        tsid = build_two_sided_id(A, sel.I_s, sel.J_s)
        diff = np.linalg.norm(tsid.reconstruct() - cid.reconstruct(A))
        assert diff < 1e-8 * np.linalg.norm(A)

    def test_cur_full_index_sets(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((7, 7))
        cur = build_cur_stable(A, np.arange(7), np.arange(7))
        assert np.abs(cur.reconstruct() - A).max() < 1e-10

    def test_cur_exact_rank(self):
        rng = np.random.default_rng(34)
        A = random_matrix(rng, 30, 25, rank=5)
        sel = select_columns_lupp(A, 5, 0, seed=35)
        cur = build_cur_stable(A, sel.I_s, sel.J_s)
        assert np.linalg.norm(A - cur.reconstruct()) < 1e-8 * np.linalg.norm(A)

    def test_cur_middle_factor_on_a_square_input_keeps_its_bits(self):
        rng = np.random.default_rng(36)
        A = rng.standard_normal((60, 60))
        sel = select_columns_lupp(A, 8, 0, seed=37)
        cur = build_cur_stable(A, sel.I_s, sel.J_s)
        assert np.array_equal(cur.U_mid, cur.Q_C.T @ (A @ cur.Q_R))

    @pytest.mark.parametrize("shape", [(900, 40), (40, 900)])
    @pytest.mark.parametrize("matvec", [False, True])
    def test_cur_middle_factor_on_tall_and_wide_inputs(self, shape, matvec):
        rng = np.random.default_rng(shape[0])
        A = random_matrix(rng, *shape, spectrum=np.logspace(0, -4, 30))
        sel = select_columns_lupp(A, 8, 0, seed=38)
        cur = build_cur_stable(MatvecOnly(A) if matvec else A, sel.I_s, sel.J_s)
        want = cur.Q_C.T @ (A @ cur.Q_R)
        assert cur.U_mid.shape == (8, 8)
        assert np.abs(cur.U_mid - want).max() <= 1e-13 * np.linalg.norm(A)
        if shape[0] > shape[1] and not matvec:  # the cheaper order, (Q_C^T A) Q_R
            assert np.array_equal(cur.U_mid, (cur.Q_C.T @ A) @ cur.Q_R)

    def test_cur_matches_oracle_and_sandwich(self):
        # stable construction equals the pseudoinverse oracle and sits inside
        # the two-sided error sandwich, both norms, 100 seeded instances
        for seed in range(100):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((24, 18))
            sel = select_columns_lupp(A, 5, 0, seed=seed)
            cur = build_cur_stable(A, sel.I_s, sel.J_s)
            for ord_, idx in ((None, 0), (2, 1)):
                got = np.linalg.norm(A - cur.reconstruct(), ord_)
                want = cur_residual(A, sel.I_s, sel.J_s)[idx]
                assert abs(got - want) < 1e-10 * max(want, 1.0)
                col = column_skeleton_residual(A, sel.J_s)[idx]
                row = row_skeleton_residual(A, sel.I_s)[idx]
                assert col <= got * (1 + 1e-10)
                assert got <= np.sqrt(col ** 2 + row ** 2) * (1 + 1e-10)

    def test_singular_skeleton_raises(self):
        A = np.zeros((6, 6))
        A[:, 0] = 1.0
        with pytest.raises(SingularSkeleton):
            build_column_id(A, np.array([0, 1]))

    def test_unstable_estimate_gated(self):
        rng = np.random.default_rng(36)
        A = rng.standard_normal((10, 10))
        C, S, R = A[:, :3], A[:2, :3], A[:2, :]
        with pytest.raises(BadShape):
            estimate_cur_from_skeletons(C, S, R)
        # opt-in path works on a square invertible block
        S = A[:3, :3]
        R = A[:3, :]
        out = estimate_cur_from_skeletons(C, S, R, allow_unstable=True)
        assert out.shape == (10, 10)

    @pytest.mark.parametrize("rows, cols", [(2, 3), (4, 3)], ids=["wide", "tall"])
    def test_unstable_estimate_needs_square_block(self, rows, cols):
        A = np.random.default_rng(36).standard_normal((10, 10))
        with pytest.raises(ShapeMismatch):
            estimate_cur_from_skeletons(A[:, :cols], A[:rows, :cols], A[:rows, :],
                                        allow_unstable=True)

    def test_two_sided_near_singular_block_raises(self):
        # S = A[I_s, J_s] is singular to 1e-14 relative while C has full rank
        rng = np.random.default_rng(38)
        A = rng.standard_normal((8, 6))
        A[1, :] = A[0, :] + 1e-14 * rng.standard_normal(6)
        with pytest.raises(SingularSkeleton):
            build_two_sided_id(A, [0, 1], [2, 3])


_A6x5 = np.random.default_rng(37).standard_normal((6, 5))
_BAD_INDICES = {"past the end": [9], "negative": [-1], "fractional": [0.5],
                "non-finite": [float("nan")], "boolean": [True], "2-D": [[0, 1]]}


@pytest.mark.parametrize("bad", list(_BAD_INDICES.values()), ids=list(_BAD_INDICES))
@pytest.mark.parametrize("call", [
    lambda bad: build_cur_stable(_A6x5, bad, [1]),
    lambda bad: build_cur_stable(_A6x5, [1], bad),
    lambda bad: posterior_eta(_A6x5[:3], bad),
    lambda bad: build_column_id(_A6x5, bad),
    lambda bad: build_row_id(_A6x5, bad),
    lambda bad: build_two_sided_id(_A6x5, bad, [1]),
    lambda bad: build_two_sided_id(_A6x5, [1], bad),
], ids=["cur-rows", "cur-columns", "eta", "column-id", "row-id", "two-sided-rows",
        "two-sided-columns"])
def test_bad_skeleton_index_raises_bad_shape(call, bad):
    with pytest.raises(BadShape):
        call(bad)


def test_integer_valued_float_indices_accepted():
    assert np.array_equal(build_column_id(_A6x5, [0.0, 3.0]).J_s, [0, 3])
    assert posterior_eta(_A6x5[:3], []) == 1.0


class _CastOperator:
    """Matvec-only access to a dense ``A`` whose products come back as
    ``dtype``, as a user's operator in single precision returns them."""

    def __init__(self, A, dtype, widen):
        self.A, self.shape, self.dtype, self.widen = A, A.shape, dtype, widen

    def _out(self, P):
        P = P.astype(self.dtype)
        return P.astype(np.float64) if self.widen else P

    def matmat(self, M):
        return self._out(self.A @ M)

    def rmatmat(self, M):
        return self._out(self.A.T @ M)

    def columns(self, J):
        return self.A[:, J]

    def rows(self, I):
        return self.A[I, :]

    def to_dense(self):
        return self.A


@pytest.mark.parametrize("select", [select_columns_lupp, select_columns_cpqr, select_deim])
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_low_precision_operator_products_are_factored_in_float64(select, dtype):
    # LAPACK reads the sketch as float64: a float32 or float16 product must be
    # widened first, never handed over as a buffer of narrower entries
    A = random_matrix(np.random.default_rng(14), 200, 120, rank=12)
    got = select(_CastOperator(A, dtype, widen=False), 10, seed=15)
    want = select(_CastOperator(A, dtype, widen=True), 10, seed=15)
    np.testing.assert_array_equal(got.J_s, want.J_s)
    np.testing.assert_array_equal(got.I_s, want.I_s)
    assert got.eta_column == want.eta_column


@pytest.mark.parametrize("form", ["dense", "matvec", "linear-operator"])
@pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse_sign"])
@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("select", [select_columns_lupp, select_columns_cpqr])
def test_row_sketch_is_the_power_iteration_on_the_transpose(select, q, kind, form):
    # X = Gamma (A A^T)^q A is power_iter_plain on A^T with the same Gamma, transposed
    A = np.random.default_rng(35).standard_normal((40, 25))
    op = {"dense": A, "matvec": MatvecOnly(A), "linear-operator": aslinearoperator(A)}[form]
    sel = select(op, 6, q, seed=3, embedding=kind)
    want = power_iter_plain(as_operator(op).T, make_embedding(kind, 6, 40, seed=3), q).T
    assert sel.X.shape == (6, 25) and sel.X.tobytes() == want.tobytes()


_A = np.random.default_rng(31).standard_normal((8, 6))
_C = np.random.default_rng(34).standard_normal((20, 12))
_B = np.random.default_rng(32).standard_normal((60, 40))
_I, _J = np.arange(5), np.arange(5)
#: A finite input whose plain power iteration leaves the float range.
_HUGE = np.random.default_rng(33).standard_normal((6, 4)) * 1e300


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: select_streaming([_A], 3, pivot="qr", m=8, n=6), BadShape,
                 id="streaming-pivot"),
    pytest.param(lambda: select_streaming([_A, _A], 3, m=8, n=6), ShapeMismatch,
                 id="streaming-too-many-columns"),
    pytest.param(lambda: select_streaming([_A[:5]], 3, m=8, n=6), ShapeMismatch,
                 id="streaming-block-height"),
    pytest.param(lambda: streaming_interp_coeffs(select_leverage(_A, 2, 3, seed=0)), BadShape,
                 id="interp-coeffs-without-X"),
    pytest.param(lambda: select_streaming(None, 3, m=20, n=12),
                 pytest.raises(BadShape, match="^blocks must be an iterable"),
                 id="streaming-blocks-none"),
    pytest.param(lambda: streaming_interp_coeffs(None),
                 pytest.raises(BadShape, match="^result must be a SkeletonResult"),
                 id="interp-coeffs-none"),
    *[pytest.param(lambda size=size: build_column_id(_C, [0, 1, 2]).reconstruct(_C[:, :size]),
                   pytest.raises(ShapeMismatch, match=f"^A has {size} columns, the column ID 12$"),
                   id=f"column-id-reconstruct-{size}-columns") for size in (10, 2)],
    *[pytest.param(lambda size=size: build_row_id(_C, [0, 1, 2]).reconstruct(_C[:size]),
                   pytest.raises(ShapeMismatch, match=f"^A has {size} rows, the row ID 20$"),
                   id=f"row-id-reconstruct-{size}-rows") for size in (8, 2)],
    pytest.param(lambda: build_two_sided_id(_A, [0, 1], [0]), ShapeMismatch,
                 id="two-sided-sizes"),
    pytest.param(lambda: _sample_without_replacement(np.random.default_rng(0), np.zeros(5), 2),
                 DegenerateDistribution, id="all-zero-scores"),
    *[pytest.param(lambda select=select: select(_A, 11), names("l"), id=f"{select.__name__}-l>n")
      for select in (select_columns_lupp, select_columns_cpqr, select_deim)],
    pytest.param(lambda: select_leverage(_A, 2, 11), names("l"), id="select_leverage-l>n"),
    *size_cases("lupp-q", "q", lambda q: select_columns_lupp(_A, 3, q=q), 1, 2),
    *size_cases("cpqr-l", "l", lambda l: select_columns_cpqr(_A, l), 3, 0),
    *size_cases("leverage-l", "l", lambda l: select_leverage(_A, 2, l), 3, 7),
    *size_cases("leverage-k", "k", lambda k: select_leverage(_A, k, 3), 2, 0),
    *size_cases("streaming-l", "l", lambda l: select_streaming([_A], l, m=8, n=6), 3, 11),
    *size_cases("streaming-m", "m", lambda m: select_streaming([_A], 3, m=m, n=6), 8, 0),
    *size_cases("streaming-n", "n", lambda n: select_streaming([_A], 3, m=8, n=n), 6, 0),
    pytest.param(lambda: build_cur_stable(MatvecOnly(_B[:40], matmat=lambda P: P[:, :1]),
                                          _I, _J),
                 pytest.raises(ShapeMismatch, match=r"matmat returned shape \(40, 1\), "
                               r"expected \(40, 5\)"), id="cur-matmat-shape"),
    pytest.param(lambda: build_cur_stable(MatvecOnly(_B[:, :8], rmatmat=lambda P: P[:-1]),
                                          _I, _J),
                 pytest.raises(ShapeMismatch, match="rmatmat returned shape"),
                 id="cur-rmatmat-shape"),
    *[pytest.param(lambda select=select: select(_HUGE, 2, 1),
                   pytest.raises(BadShape, match="^the plain power iteration overflows"),
                   id=f"{select.__name__}-power-iteration-overflow")
      for select in (select_columns_lupp, select_columns_cpqr)],
])
def test_documented_errors(call, error):
    with error if isinstance(error, pytest.RaisesExc) else pytest.raises(error):
        call()
