import ast
import ctypes
import functools
import os
import pathlib
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import aslinearoperator
from hypothesis import given, settings, strategies as st

from randskel import (build_cur_stable, cpqr, lupp, make_gaussian, power_iter_plain, qr_ortho,
                      randomized_svd, select_columns_cpqr, select_columns_lupp,
                      spectral_norm_estimate, svd_thin)
from randskel import dense
from randskel.dense import _blas_runtimes, as_operator, blas_threads, spectral_norm, svdvals
from randskel.errors import BadShape, RankDeficient, ShapeMismatch, ZeroDimension
from oracles import MatvecOnly, names, size_cases

#: The suite runs on scipy's LAPACK under this switch (tests/conftest.py).
SCIPY_LAPACK = os.environ.get("RANDSKEL_TEST_LAPACK") == "scipy"

class TestQrOrtho:
    def test_already_orthonormal(self):
        M = np.eye(4)[:, :2]
        Q = qr_ortho(M)
        assert np.allclose(np.abs(Q), M, atol=1e-14)

    def test_single_column_normalization(self):
        Q = qr_ortho(np.array([[3.0], [0.0], [4.0]]))
        assert np.allclose(np.abs(Q[:, 0]), [0.6, 0.0, 0.8], atol=1e-14)

    def test_span_matches_svd_basis(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((50, 10))
        Q = qr_ortho(M)
        assert np.linalg.norm(Q.T @ Q - np.eye(10), 2) < 1e-10
        U = np.linalg.svd(M, full_matrices=False)[0]
        assert np.linalg.norm(Q @ Q.T - U @ U.T, 2) < 1e-10

    def test_rank_deficient_raises(self):
        M = np.ones((5, 3))
        with pytest.raises(RankDeficient):
            qr_ortho(M)

    def test_wide_rejected(self):
        with pytest.raises(BadShape):
            qr_ortho(np.ones((2, 3)))


class TestSvdThin:
    def test_diagonal(self):
        f = svd_thin(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.sigma, [3, 2, 1])

    def test_rank_one_outer_product(self):
        u = np.array([2.0, 0.0])
        v = np.array([0.0, 3.0, 0.0])
        f = svd_thin(np.outer(u, v))
        assert abs(f.sigma[0] - 6.0) < 1e-12
        assert f.sigma[1] < 1e-12
        assert f.rank == 1

    def test_against_gram_eigensolve(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((30, 20))
        f = svd_thin(M)
        evals = np.linalg.eigvalsh(M.T @ M)[::-1]
        ref = np.sqrt(np.clip(evals, 0, None))
        assert np.allclose(f.sigma, ref, rtol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((15, 9))
        f = svd_thin(M)
        assert np.linalg.norm((f.U * f.sigma) @ f.V.T - M) < 1e-9 * np.linalg.norm(M)


class TestLupp:
    def test_identity(self):
        f = lupp(np.eye(3))
        assert list(f.perm) == [0, 1, 2]
        assert np.allclose(f.L, np.eye(3))
        assert np.allclose(f.U, np.eye(3))

    def test_kahan_type_growth(self):
        # R1 unit upper triangular with -1 above the diagonal, R2 all ones;
        # the eliminated quotient grows like 2^(l-i) per row, row 1 -> 8.
        l, n = 4, 5
        R1 = np.eye(l) - np.triu(np.ones((l, l)), 1)
        X = np.hstack([R1, np.ones((l, n - l))])
        f = lupp(X.T)
        assert list(f.perm[:l]) == [0, 1, 2, 3]
        R1_got = f.L[:l].T
        R2_got = f.L[l:].T
        assert np.allclose(R1_got, R1)
        grow = np.linalg.solve(R1_got, R2_got)
        assert np.allclose(grow.max(axis=1), [8.0, 4.0, 2.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 4))
        f = lupp(M)
        assert np.abs(M[f.perm] - f.L @ f.U).max() < 1e-12 * np.abs(M).max()
        assert f.rank_detected == 4

    def test_l_entries_bounded(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            M = np.random.default_rng(seed).standard_normal((12, 7))
            f = lupp(M)
            assert np.abs(np.tril(f.L, -1)).max() <= 1.0

    def test_rank_deficient_reports_step(self):
        M = np.zeros((5, 3))
        M[:, 0] = [1, 2, 3, 0, 1]
        M[:, 1] = 2 * M[:, 0]
        M[:, 2] = -M[:, 0]
        with pytest.raises(RankDeficient) as exc:
            lupp(M)
        assert exc.value.rank_detected == 1
        assert exc.value.partial.L.shape == (5, 1)


def _svdvals_inputs():
    rng = np.random.default_rng(40)
    tall = rng.standard_normal((301, 40))
    return {
        "square": rng.standard_normal((120, 120)),
        "tall": tall,
        "wide": rng.standard_normal((40, 301)),
        "1xn": rng.standard_normal((1, 57)),
        "mx1": rng.standard_normal((57, 1)),
        "fortran": np.asfortranarray(rng.standard_normal((90, 70))),
        "slice": tall[::3, 1::2],
        "rank-deficient": rng.standard_normal((80, 5)) @ rng.standard_normal((5, 60)),
        "zero": np.zeros((30, 20)),
        "empty": np.zeros((0, 4)),
        "n=0": np.zeros((4, 0)),
        "blocked": rng.standard_normal((500, 500)),  # past dgebrd's blocking crossover
    }


def _same_array(got, want):
    """Same bits, shape, dtype and memory order."""
    return (got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.flags.f_contiguous == want.flags.f_contiguous)


class TestProjectOut:
    def test_both_sides_against_the_projector(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((9, 7))
        for side, rows, projected in (("left", 9, lambda P: M - P @ M),
                                      ("right", 7, lambda P: M - M @ P)):
            Q = np.linalg.qr(rng.standard_normal((rows, 3)))[0]
            got = dense._project_out(M, Q, side)
            assert np.allclose(got, projected(Q @ Q.T), rtol=0, atol=1e-14)
            assert np.allclose(dense._project_out(got, Q, side), got, rtol=0, atol=1e-14)
            with pytest.raises(ShapeMismatch, match=f"{side} basis rows"):
                dense._project_out(M, Q[1:], side)


class TestSvdvals:
    @pytest.mark.parametrize("name", list(_svdvals_inputs()))
    def test_bitwise_equal_to_numpy(self, name):
        M = _svdvals_inputs()[name]
        # where dense._lapack binds scipy's LAPACK (tests/conftest.py), the
        # bits are scipy's, as in test_fallback_returns_scipy_bits
        svd, same = ((functools.partial(sla.svd, check_finite=False), _bitwise)
                     if SCIPY_LAPACK else (np.linalg.svd, _same_array))
        got, want = svdvals(M), svd(M, compute_uv=False)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert spectral_norm(M) == (float(want.max()) if want.size else 0.0)
        # svd_thin: numpy's bits and layout (C-ordered U and V^T), at two BLAS
        # threads and at one
        for threads in (blas_threads(2), blas_threads(1)):
            with threads:
                f = svd_thin(M)
                u, s, vt = svd(M, full_matrices=False)
            assert same(f.U, u) and same(f.sigma, s) and same(f.V, vt.T)

    def test_runs_in_numpy_lapack(self):
        _skip_without_numpy_lapack()
        # numpy's wheels bundle an ILP64 OpenBLAS; scipy's LP64 one is not loaded
        assert dense._lapack("dgesdd").c_int is ctypes.c_int64

    @pytest.mark.parametrize("lapack_path", ["fallback"], indirect=True)
    def test_fallback_returns_scipy_bits(self, lapack_path):
        for name, M in _svdvals_inputs().items():
            want = sla.svd(M, compute_uv=False, check_finite=False)
            assert np.array_equal(svdvals(M), want), name
            f = svd_thin(M)
            u, s, vt = sla.svd(M, full_matrices=False, check_finite=False)
            assert _bitwise(f.U, u) and _bitwise(f.sigma, s) and _bitwise(f.V, vt.T), name

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        M = np.ones((4, 3))
        M[2, 1] = value
        with pytest.raises(BadShape):
            svdvals(M)

    def test_threads_give_serial_bits(self, lapack_path):
        rng = np.random.default_rng(41)
        inputs = [rng.standard_normal((rng.integers(20, 90), rng.integers(20, 90)))
                  for _ in range(40)]

        def factors(M):
            f = svd_thin(M)
            return svdvals(M), f.U, f.sigma, f.V

        with blas_threads(1):
            serial = [factors(M) for M in inputs]
            with ThreadPoolExecutor(max_workers=2) as pool:
                pooled = list(pool.map(factors, inputs))
        assert all(np.array_equal(a, b) for s, p in zip(serial, pooled) for a, b in zip(s, p))


class TestBlasThreads:
    def counts(self):
        return [get() for _, get in _blas_runtimes()]

    def test_sets_and_restores_each_runtime(self):
        assert _blas_runtimes(), "no OpenBLAS runtime bundled with numpy or scipy found"
        with blas_threads(3):  # not the suite's count, so that restoring it shows
            before = self.counts()
            with blas_threads(1):
                assert self.counts() == [1] * len(before)
                with blas_threads(2):
                    assert self.counts() == [2] * len(before)
                assert self.counts() == [1] * len(before)
            assert self.counts() == before == [3] * len(before)

    def test_restores_when_block_raises(self):
        with blas_threads(3):  # not the suite's count, so that restoring it shows
            with pytest.raises(ZeroDivisionError):
                with blas_threads(1):
                    1 / 0
            assert self.counts() == [3] * len(_blas_runtimes())

    def test_unprefixed_symbols_of_older_wheels_found(self, monkeypatch):
        counts = {}

        def runtime(suffix):  # numpy<2 (ILP64, suffixed) and scipy<1.13 name them so
            return types.SimpleNamespace(**{
                f"openblas_set_num_threads{suffix}": lambda n: counts.__setitem__(suffix, n),
                f"openblas_get_num_threads{suffix}": lambda: counts.get(suffix, 4)})

        monkeypatch.setattr(dense, "_bundled_openblas", lambda: (runtime("64_"), runtime("")))
        with blas_threads(1):
            assert counts == {"64_": 1, "": 1}
        assert counts == {"64_": 4, "": 4}

    def test_warns_when_no_runtime_found(self, monkeypatch):
        monkeypatch.setattr(dense, "_blas_runtimes", lambda: ())
        with pytest.warns(RuntimeWarning, match="no OpenBLAS runtime"):
            with blas_threads(1):
                pass

    @pytest.mark.parametrize("n", [0, -2, 1.5])
    def test_bad_count_rejected(self, n):
        with pytest.raises(BadShape):
            with blas_threads(n):
                pass


def test_library_has_no_gil_holding_values_only_svd():
    # numpy's values-only SVD (``compute_uv=False``, and ``norm(., 2)`` over
    # it) holds the GIL for the whole LAPACK call; the library goes through
    # dense.svdvals / dense.spectral_norm instead
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "randskel"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            kwargs = {k.arg: k.value for k in node.keywords}
            values_only = isinstance(kwargs.get("compute_uv"), ast.Constant) \
                and kwargs["compute_uv"].value is False
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            ord_ = node.args[1] if len(node.args) > 1 else kwargs.get("ord")
            two_norm = name == "norm" and isinstance(ord_, ast.Constant) \
                and ord_.value in (2, -2)
            if values_only or two_norm:
                found.append(f"{path.relative_to(src)}:{node.lineno}")
    assert not found, f"use dense.svdvals/spectral_norm at {found}"


class TestAsMatrix:
    @pytest.mark.parametrize("row", [[1.0, np.nan, 2.0], [np.inf, 1.0, 2.0],
                                     [1.0, 2.0, -np.inf], [1e308, 1e308, np.nan],
                                     [1e308, 1e308, -np.inf], [np.inf, -np.inf, 0.0]])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_non_finite_entry_raises_without_warning(self, row, at):
        M = np.ones((7, 3))
        M[at] = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadShape, match="non-finite"):
                dense.as_matrix(M)

    def test_overflowing_row_sums_are_accepted(self):
        M = np.array([[1e308, 1e308], [1.0, 2.0], [-1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dense.as_matrix(M)
        assert np.array_equal(got, M)


class TestOperatorColumns:
    @pytest.mark.parametrize("m, n, J", [
        (1300, 7, [3, 3, 0, 6, 3]),  # repeated J; m not a multiple of the row tile
        (1300, 7, []),
        (1024, 1, [0, 0]),           # a 1-column A
        (5, 4, [2, 1]),
    ])
    def test_equals_fancy_index_fortran_ordered(self, m, n, J):
        A = np.random.default_rng(m + n).standard_normal((m, n))
        C = as_operator(A).columns(J)
        assert C.shape == (m, len(J)) and C.flags.f_contiguous
        assert np.ascontiguousarray(C).tobytes() == A[:, J].tobytes()

    @pytest.mark.parametrize("J", [[3, 3, 0, 6, 3], [], [6]])
    def test_matvec_slices_are_unit_vector_products(self, J):
        # a matvec-only operator's slices are C-ordered and equal to the
        # dense form's, bit for bit, and to the SNN operator's own slices
        A = np.random.default_rng(5).standard_normal((13, 7))
        op = as_operator(MatvecOnly(A))
        C, R = op.columns(J), op.rows(J)
        assert C.flags.c_contiguous and C.tobytes() == A[:, J].tobytes()
        assert R.flags.c_contiguous and R.tobytes() == A[J, :].tobytes()
        from randskel import SnnParams, gen_snn_operator, snn_weights

        snn = gen_snn_operator(SnnParams(m=40, n=30, r=10, s=snn_weights(2, 3, 10),
                                         density=0.3, seed=1))
        assert as_operator(snn).columns(J).tobytes() == snn.columns(J).tobytes()
        assert as_operator(snn).rows(J).tobytes() == snn.rows(J).tobytes()


_FORMS = {"dense": lambda A: A, "matvec": MatvecOnly, "linear-operator": aslinearoperator}


class TestTransposeView:
    """Each operator kind states one side; every transposed member is its twin on ``T``."""

    A = np.random.default_rng(12).standard_normal((13, 7))

    @pytest.mark.parametrize("form", _FORMS)
    def test_transposed_members_are_twins_on_t(self, form):
        op, I = as_operator(_FORMS[form](self.A)), [4, 0, 4, 12]
        M = np.random.default_rng(13).standard_normal((13, 3))
        assert op.T.shape == (7, 13)
        assert op.rows(I).tobytes() == np.ascontiguousarray(op.T.columns(I).T).tobytes()
        assert op.rows(I).tobytes() == self.A[I, :].tobytes()
        assert op.rmatmat(M).tobytes() == op.T.matmat(M).tobytes()

    @pytest.mark.parametrize("form", _FORMS)
    def test_t_of_t_is_the_operator(self, form):
        op = as_operator(_FORMS[form](self.A))
        M = np.random.default_rng(14).standard_normal((7, 2))
        assert op.T.T.shape == op.shape == (13, 7)
        assert op.T.T.matmat(M).tobytes() == op.matmat(M).tobytes()
        assert op.T.T.columns([6, 1]).tobytes() == op.columns([6, 1]).tobytes()

    def test_wrong_result_on_t_names_rmatmat(self):
        op = as_operator(MatvecOnly(self.A, rmatmat=lambda P: P[:-1]))
        with pytest.raises(ShapeMismatch, match=r"^operator rmatmat returned shape \(6, 2\), "
                                                r"expected \(7, 2\)$"):
            op.T.matmat(np.ones((13, 2)))


class TestCpqr:
    def test_norm_dominant_first_pivot(self):
        M = np.array([[0.0, 5.0], [1.0, 0.0]])
        f = cpqr(M)
        assert f.perm[0] == 1

    def test_orthogonal_columns_pivot_by_norm(self):
        M = np.diag([1.0, 3.0, 2.0])
        f = cpqr(M)
        assert list(f.perm) == [1, 2, 0]

    def test_reconstruction_and_diag(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 5))
        f = cpqr(M)
        assert np.abs(M[:, f.perm] - f.Q @ f.R).max() < 1e-12 * np.abs(M).max()
        d = np.abs(np.diag(f.R))
        assert (np.diff(d) <= 0).all()


def _lapack_inputs():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((60, 12))
    return {
        "square": rng.standard_normal((120, 120)),
        "tall": rng.standard_normal((301, 40)),
        "wide": rng.standard_normal((40, 301)),
        "1xn": rng.standard_normal((1, 57)),
        "mx1": rng.standard_normal((57, 1)),
        "n=0": np.zeros((9, 0)),
        "fortran": np.asfortranarray(rng.standard_normal((90, 70))),
        "rank-deficient": rng.standard_normal((80, 5)) @ rng.standard_normal((5, 60)),
        "duplicate-column": np.hstack([X, X[:, 3:7]]),
    }


def _skip_without_numpy_lapack():
    """Skip a test of numpy's own LAPACK where the suite runs on scipy's."""
    if SCIPY_LAPACK:
        pytest.skip("asserts numpy's LAPACK; RANDSKEL_TEST_LAPACK=scipy hides it")


@pytest.fixture(params=["numpy-lapack", "fallback"])
def lapack_path(request, monkeypatch):
    """Each kernel runs in numpy's bundled LAPACK, and again with numpy's
    runtime hidden, so that dense._lapack binds scipy's instead."""
    if request.param == "fallback":
        monkeypatch.setattr(dense, "_numpy_openblas", lambda: ())
    dense._lapack.cache_clear()
    yield request.param
    dense._lapack.cache_clear()


def test_every_routine_resolves_from_both_sources(lapack_path):
    if lapack_path == "numpy-lapack":
        _skip_without_numpy_lapack()
    width = ctypes.c_int64 if lapack_path == "numpy-lapack" else ctypes.c_int32
    assert all(dense._lapack(name).c_int is width for name in dense._LAPACK_ARGS)


def _bitwise(got, want):
    return got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", list(_lapack_inputs()))
class TestScipyParity:
    """The kernels make scipy.linalg's LAPACK calls; with the same QR routines
    in both OpenBLAS builds, the bits are scipy's."""

    def test_qr(self, name, lapack_path):
        M = _lapack_inputs()[name]
        r, form_q = dense._qr(M)
        q = form_q()
        want_q, want_r = sla.qr(M, mode="economic", check_finite=False)
        assert _bitwise(q, want_q) and _bitwise(r, want_r)
        if M.shape[0] >= M.shape[1] and name not in ("rank-deficient", "duplicate-column"):
            q, r = dense.qr_checked(M)
            assert q.flags.c_contiguous and r.flags.c_contiguous
            assert _bitwise(q, want_q) and _bitwise(r, want_r)
            assert _bitwise(dense._r_checked(M)[0], want_r)

    def test_cpqr(self, name, lapack_path):
        M = _lapack_inputs()[name]
        f = cpqr(M)
        want_q, want_r, want_perm = sla.qr(M, mode="economic", pivoting=True,
                                           check_finite=False)
        assert _bitwise(f.perm, want_perm)
        assert _bitwise(f.R, want_r) and _bitwise(f.Q, want_q)

    def test_lu_pivots_and_rank(self, name, lapack_path):
        M = _lapack_inputs()[name]
        T = M if M.shape[0] >= M.shape[1] else M.T
        perm, rank, lu = dense._lu_pivots(T)
        if T.shape[1] == 0:
            assert rank == 0 and _bitwise(perm, np.arange(T.shape[0]))
            return
        want_lu, piv = sla.lu_factor(T, check_finite=False)
        want_perm = np.arange(T.shape[0])
        for t, p in enumerate(piv):
            want_perm[t], want_perm[p] = want_perm[p], want_perm[t]
        assert rank == dense._detected_rank(np.diag(want_lu), np.abs(T).max())
        # scipy's OpenBLAS build may differ from numpy's, and dgetrf is
        # OpenBLAS's own: its rounding moves the factor in the last bits and,
        # past the detected rank, the order of noise-level pivots
        assert _bitwise(perm[:rank], want_perm[:rank])
        if rank == T.shape[1]:
            assert _bitwise(perm, want_perm)
            assert np.abs(lu - want_lu).max() <= 1e-13 * np.abs(T).max()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_upper(self, name, order, lapack_path):
        M = _lapack_inputs()[name]
        k = min(M.shape)
        R = np.array(np.triu(M[:k, :k]) + 4.0 * np.eye(k), order=order)
        B = M[:k]
        got = dense.solve_upper(R, B)
        want = sla.solve_triangular(R, B, check_finite=False)
        assert _bitwise(got, want) and got.flags.f_contiguous


def _tall_crossover(n):
    """Fewest rows with which an n-column input takes the tall QR route."""
    return 2 * max(dense._TSQR_ROWS, 4 * n)


def _tall_inputs():
    rng = np.random.default_rng(23)
    rows, wide = dense._TSQR_ROWS, dense._TSQR_ROWS // 4 + 8
    X = rng.standard_normal((_tall_crossover(40) + 517, 40))
    return {
        "crossover": rng.standard_normal((_tall_crossover(40), 40)),
        "not-a-block-multiple": X,
        "one-row-past-the-blocks": rng.standard_normal((3 * rows + 1, 40)),
        "n=1": rng.standard_normal((_tall_crossover(1), 1)),
        "partial-reflector-block": rng.standard_normal((_tall_crossover(40) + 3,
                                                        dense._TSQR_NB + 1)),
        "blocks-of-4n-rows": rng.standard_normal((_tall_crossover(wide), wide)),
        "fortran": np.asfortranarray(X),
        "float32": X.astype(np.float32),
    }


def _tall_rank_deficient():
    rng = np.random.default_rng(29)
    m = _tall_crossover(30) + 5
    X = rng.standard_normal((m, 30))
    zero = X.copy()
    zero[:, 5] = 0.0
    # (input, leading |R_ii| above the tolerance, numerical rank)
    return {
        "duplicate-column": (np.hstack([X, X[:, 3:7]]), 30, 30),
        "zero-column": (zero, 5, 29),
        "rank-deficient": (rng.standard_normal((m, 5)) @ rng.standard_normal((5, 30)), 5, 5),
    }


@pytest.fixture
def tall_calls(monkeypatch):
    """Shapes of the inputs that took the tall QR route."""
    calls, tsqr = [], dense._tsqr
    monkeypatch.setattr(dense, "_tsqr", lambda a, rows: calls.append(a.shape) or tsqr(a, rows))
    return calls


class TestTallQr:
    @pytest.mark.parametrize("n", [1, 40])
    def test_below_crossover_keeps_scipy_bits(self, n, lapack_path, tall_calls):
        M = np.random.default_rng(n).standard_normal((_tall_crossover(n) - 1, n))
        want_q, want_r = sla.qr(M, mode="economic", check_finite=False)
        r, form_q = dense._qr(M)
        assert _bitwise(r, want_r) and _bitwise(form_q(), want_q)
        q, r = dense.qr_checked(M)
        assert _bitwise(q, want_q) and _bitwise(r, want_r) and not tall_calls

    @pytest.mark.parametrize("name", list(_tall_inputs()))
    def test_factors(self, name, lapack_path, tall_calls):
        M = _tall_inputs()[name]
        m, n = M.shape
        q, r = dense.qr_checked(M)
        assert tall_calls == [(m, n)]
        assert q.shape == (m, n) and r.shape == (n, n) and q.dtype == r.dtype == np.float64
        assert q.flags.c_contiguous and r.flags.c_contiguous and np.array_equal(r, np.triu(r))
        eps = np.finfo(np.float64).eps
        M64 = M.astype(np.float64)
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 10 * n * eps
        assert np.linalg.norm(q @ r - M64) <= 10 * n * eps * np.linalg.norm(M64)
        want_r = sla.qr(M64, mode="r", check_finite=False)[0]
        np.testing.assert_allclose(np.abs(np.diag(r)), np.abs(np.diag(want_r)), rtol=1e-12)
        assert _bitwise(dense._r_checked(M)[0], r)

    @pytest.mark.parametrize("name", list(_tall_rank_deficient()))
    def test_rank_deficient(self, name, lapack_path, tall_calls):
        M, leading, rank = _tall_rank_deficient()[name]
        for checked in (dense.qr_checked, dense._r_checked):
            with pytest.raises(RankDeficient, match=f"rank {leading} of {M.shape[1]}"):
                checked(M)
        assert tall_calls
        f = svd_thin(M)
        assert f.rank == rank and _bitwise(dense.orth(M), f.U[:, :rank])
        # the SVD of R detects the rank that dgesdd on the whole input does
        s = sla.svd(M, compute_uv=False, check_finite=False)
        assert dense._detected_rank(s, s[0]) == rank

    def test_same_bits_on_rerun_and_across_threads(self, lapack_path):
        inputs = list(_tall_inputs().values())[:4]
        with blas_threads(1):
            serial = [dense.qr_checked(M) for M in inputs]
            again = [dense.qr_checked(M) for M in inputs]
            with ThreadPoolExecutor(max_workers=2) as pool:
                pooled = list(pool.map(dense.qr_checked, inputs))
        for s, a, p in zip(serial, again, pooled):
            assert all(np.array_equal(x, y) and np.array_equal(x, z) for x, y, z in zip(s, a, p))


class TestTallSvd:
    @pytest.mark.parametrize("shape", [(3000, 100), (100, 2900), (_tall_crossover(40), 40),
                                       (40, _tall_crossover(40))])
    def test_matches_dgesdd(self, shape, lapack_path, tall_calls):
        rng = np.random.default_rng(shape[0])
        M = rng.standard_normal(shape) * np.logspace(0, -6, shape[1])
        want = np.linalg.svd(M, compute_uv=False)
        got = svdvals(M)
        assert tall_calls == [tuple(sorted(shape, reverse=True))]  # a wide M through M.T
        f = svd_thin(M)
        k = min(shape)
        assert f.U.shape == (shape[0], k) and f.V.shape == (shape[1], k)
        assert f.U.flags.c_contiguous and f.V.T.flags.c_contiguous
        for sigma in (got, f.sigma):
            assert np.abs(sigma - want).max() <= 1e-13 * want[0]
        assert np.linalg.norm(f.U.T @ f.U - np.eye(k)) <= 1e-13
        assert np.linalg.norm(f.V.T @ f.V - np.eye(k)) <= 1e-13
        assert np.linalg.norm((f.U * f.sigma) @ f.V.T - M) <= 1e-13 * np.linalg.norm(M)

    def test_below_crossover_keeps_dgesdd(self, tall_calls):
        M = np.random.default_rng(3).standard_normal((_tall_crossover(40) - 1, 40))
        svd_thin(M), svdvals(M.T)
        assert not tall_calls


class TestSolveUpper:
    def test_exactly_singular_raises_rank_deficient(self):
        R = np.triu(np.ones((4, 4)))
        R[2, 2] = 0.0
        with pytest.raises(RankDeficient):
            dense.solve_upper(R, np.ones((4, 2)))

    def test_strict_lower_triangle_not_read(self):
        R = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
        B = np.arange(6.0).reshape(3, 2)
        noisy = R + np.tril(np.full((3, 3), 7.0), -1)
        assert np.array_equal(dense.solve_upper(noisy, B), dense.solve_upper(R, B))

    @pytest.mark.parametrize("R, B", [(np.ones((3, 2)), np.ones((3, 1))),
                                      (np.eye(3), np.ones((2, 1)))])
    def test_shape_mismatch(self, R, B):
        with pytest.raises(ShapeMismatch):
            dense.solve_upper(R, B)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_factorizations_reconstruct(m, n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    scale = np.linalg.norm(M)

    qf = cpqr(M)
    assert np.linalg.norm(M[:, qf.perm] - qf.Q @ qf.R) < 1e-10 * scale
    assert np.linalg.norm(qf.Q.T @ qf.Q - np.eye(qf.Q.shape[1]), 2) < 1e-10

    f = svd_thin(M)
    assert np.linalg.norm((f.U * f.sigma) @ f.V.T - M) < 1e-9 * scale

    if m >= n:
        lf = lupp(M)
        assert np.linalg.norm(M[lf.perm] - lf.L @ lf.U) < 1e-10 * scale
        assert np.abs(np.tril(lf.L, -1)).max() <= 1.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       c=st.sampled_from([2.0, 0.5, -4.0, 3.141]))
def test_pivot_scaling_invariance(seed, c):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((12, 8))
    assert np.array_equal(lupp(M).perm, lupp(c * M).perm)
    assert np.array_equal(cpqr(M).perm, cpqr(c * M).perm)


class TestSpectralNormEstimate:
    def test_dominant_eigenpair(self):
        A = np.diag([5.0, 1.0, 1.0])
        v = spectral_norm_estimate(lambda x: A @ x, lambda x: A.T @ x, 3, 100, seed=0)
        assert abs(v - 5.0) < 1e-6

    def test_zero_matrix(self):
        assert spectral_norm_estimate(lambda x: 0 * x, lambda x: 0 * x, 4, 10, seed=0) == 0.0

    def test_zero_dimension(self):
        with pytest.raises(ZeroDimension):
            spectral_norm_estimate(lambda x: x, lambda x: x, 0, 5)

    def test_never_exceeds_and_close_with_gap(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((40, 40))
        s1 = np.linalg.norm(A, 2)
        v = spectral_norm_estimate(lambda x: A @ x, lambda x: A.T @ x, 40, 200, seed=7)
        assert v <= s1 + 1e-12
        assert v > 0.99 * s1

    def test_lower_bound_statistical(self):
        # spectral gap 1.5: 50 iterations reach 90% of the norm for every seed
        rng = np.random.default_rng(8)
        U, _, Vt = np.linalg.svd(rng.standard_normal((20, 20)))
        A = (U * np.array([3.0, 2.0] + [1.0] * 18)) @ Vt
        for seed in range(20):
            v = spectral_norm_estimate(lambda x: A @ x, lambda x: A.T @ x, 20, 50, seed=seed)
            assert v <= 3.0 + 1e-12
            assert v >= 0.9 * 3.0



def _sketch_snn_with_wrong_embedding():
    from randskel import SnnParams, gen_snn_operator, make_gaussian, sketch_rows, snn_weights

    op = gen_snn_operator(SnnParams(m=8, n=6, r=3, s=snn_weights(2, 1, 3), density=0.5, seed=0))
    sketch_rows(make_gaussian(3, 7, seed=0), op)


def _operator(**members):
    """A matvec-only operator over a dense 5 x 4 matrix, with ``members``
    replacing its own; a member given as None is left out."""
    A = np.ones((5, 4))
    own = dict(shape=A.shape, matmat=lambda M: A @ M, rmatmat=lambda M: A.T @ M)
    return types.SimpleNamespace(**{k: v for k, v in {**own, **members}.items() if v is not None})


def _growing():
    """An ``apply`` whose results grow by one entry per call, from length 3."""
    calls = iter(range(3, 100))
    return lambda v: np.ones(next(calls))


def _run_at_threads(n):
    with blas_threads(n):
        pass


def _nan_result(P):
    return np.full(np.shape(P), np.nan)


_SQUARE, _TALL = (np.random.default_rng(9).standard_normal(shape) for shape in ((20, 20), (30, 20)))
#: (label, input, call on its matvec-only form, the members the call reads): a
#: CUR reads both, its slices as products with unit vectors and its middle
#: factor through matmat (square input) or rmatmat (tall input).
_OPERATOR_CALLS = [
    ("cur-square", _SQUARE, lambda op: build_cur_stable(op, np.arange(4), np.arange(4)),
     ("matmat", "rmatmat")),
    ("cur-tall", _TALL, lambda op: build_cur_stable(op, np.arange(4), np.arange(4)),
     ("matmat", "rmatmat")),
    ("plain", _TALL, lambda op: power_iter_plain(op, make_gaussian(4, 20, seed=0), 1),
     ("matmat", "rmatmat")),
    ("rsvd", _TALL, lambda op: randomized_svd(op, 4, q=1, seed=0), ("matmat", "rmatmat")),
    ("lupp", _TALL, lambda op: select_columns_lupp(op, 4, 1, seed=0), ("matmat", "rmatmat")),
    ("cpqr", _TALL, lambda op: select_columns_cpqr(op, 4, 1, seed=0), ("matmat", "rmatmat")),
]


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: qr_ortho(np.ones((2, 2, 2))), BadShape, id="not-2-d"),
    pytest.param(lambda: lupp(np.ones((2, 3))), BadShape, id="lupp-wide"),
    pytest.param(_sketch_snn_with_wrong_embedding, ShapeMismatch, id="embedding-dimension"),
    pytest.param(lambda: spectral_norm_estimate(lambda v: v, lambda w: w, 3, 0), BadShape,
                 id="estimate-iters<1"),
    *size_cases("estimate-iters", "iters",
                lambda i: spectral_norm_estimate(lambda v: v, lambda w: w, 3, i), 2, 0),
    *size_cases("estimate-dim", "dim",
                lambda d: spectral_norm_estimate(lambda v: v, lambda w: w, d, 2), 3, -2),
    *[pytest.param(lambda apply=apply, adjoint=adjoint: spectral_norm_estimate(
        apply, adjoint, 3, 2, seed=0), pytest.raises(error, match=match), id=f"estimate-{tag}")
      for tag, apply, adjoint, error, match in (
          ("apply-none", lambda v: None, lambda w: w, BadShape,
           "^apply result must be a real numeric vector, got NoneType$"),
          ("apply-nan", lambda v: v * np.nan, lambda w: w, BadShape,
           "^apply returned non-finite entries$"),
          ("apply-inf", lambda v: v * np.inf, lambda w: w, BadShape,
           "^apply returned non-finite entries$"),
          ("apply-text", lambda v: "abc", lambda w: w, BadShape,
           "^apply result must be a real numeric vector"),
          ("apply-complex", lambda v: v * (1 + 1j), lambda w: w, BadShape,
           "^apply result must be a real numeric vector, got complex128$"),
          ("adjoint-length", lambda v: np.ones(4), lambda w: w, ShapeMismatch,
           r"^apply_adjoint returned length 4, expected 3$"),
          ("adjoint-2-d", lambda v: v, lambda w: w[:, None], BadShape,
           r"^apply_adjoint result must be 1-D, got shape \(3, 1\)$"),
          ("norm-overflow", lambda v: np.full(4, 1.5e308), lambda w: w[:3], BadShape,
           "^the norm of the apply product exceeds the float range$"))],
    *[pytest.param(lambda args=args: spectral_norm_estimate(*args, 3, 2),
                   names(name, "a callable, got NoneType$"), id=f"estimate-{name}-not-callable")
      for name, args in (("apply", (None, lambda w: w)), ("apply_adjoint", (lambda v: v, None)))],
    pytest.param(lambda: spectral_norm_estimate(_growing(), lambda w: w[:3], 3, 2, seed=0),
                 pytest.raises(ShapeMismatch, match=r"^apply returned length 4, expected 3$"),
                 id="estimate-apply-length-changes"),
    *size_cases("blas-threads", "n", _run_at_threads, 2, 0),
    pytest.param(lambda: as_operator(_operator(matmat=None)),
                 pytest.raises(BadShape, match="lacks matmat$"), id="operator-no-matmat"),
    pytest.param(lambda: as_operator(_operator(rmatmat=None)),
                 pytest.raises(BadShape, match="lacks rmatmat$"), id="operator-no-rmatmat"),
    pytest.param(lambda: as_operator(_operator(shape=None)),
                 pytest.raises(BadShape, match="needs a shape"), id="operator-no-shape"),
    pytest.param(lambda: as_operator(_operator(shape=(5,))),
                 pytest.raises(BadShape, match="needs a shape"), id="operator-1-d-shape"),
    pytest.param(lambda: as_operator(_operator(shape=(5.0, 4))), names("shape[0]"),
                 id="operator-float-shape"),
    pytest.param(lambda: as_operator(_operator(rmatmat=lambda M: np.ones((1, 4)))).rows([0, 2]),
                 pytest.raises(ShapeMismatch, match=r"rmatmat returned shape \(1, 4\), "
                               r"expected \(4, 2\)"), id="operator-rows-shape"),
    *[pytest.param(lambda call=call, value=value: call(value),
                   pytest.raises(BadShape, match=f"^M must be a real numeric array, got {got}$"),
                   id=f"{call.__name__}-{tag}")
      for call in (qr_ortho, svd_thin, svdvals, lupp, cpqr)
      for tag, value, got in (("complex", np.eye(3) * (1 + 1j), "complex128"),
                              ("text", [["1", "2"]], "<U1"),
                              ("ragged", [[1.0], [1.0, 2.0]], "list"),
                              ("none", None, "NoneType"),
                              ("object", np.eye(2, dtype=object), "ndarray"))],
    *[pytest.param(lambda out=out: as_operator(_operator(matmat=lambda M: out)).matmat(
        np.ones((4, 1))), pytest.raises(BadShape, match=f"^operator matmat must be a real "
                                        f"numeric array, got {got}$"), id=f"operator-{tag}-result")
      for tag, out, got in (("ragged", [[1.0]] * 4 + [[1.0, 2.0]], "list"),
                            ("complex", np.ones((5, 1)) * 1j, "complex128"),
                            ("none", None, "NoneType"))],
    pytest.param(lambda: qr_ortho([[1e308], [1e308]]),
                 pytest.raises(BadShape, match="^Q overflows the float range"),
                 id="qr-ortho-overflow"),
    *[pytest.param(lambda A=A, call=call, member=member: call(
        MatvecOnly(A, **{member: _nan_result})),
        pytest.raises(BadShape, match=f"^operator {member} contains non-finite entries$"),
        id=f"operator-{member}-nan-{label}")
      for label, A, call, members in _OPERATOR_CALLS for member in members],
    *[pytest.param(lambda text=text: dense._real(text, "x", 0, 1), names("x", "in"),
                   id=f"real-{tag}") for tag, text in (("text", "0.5"), ("complex", 0.5j), ("huge-int", 10 ** 400))],
])
def test_documented_errors(call, error):
    with error if isinstance(error, pytest.RaisesExc) else pytest.raises(error):
        call()
