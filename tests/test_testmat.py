import tracemalloc
import warnings

import numpy as np
import pytest

from randskel import (
    ExplicitSpectrum,
    FastDecay,
    SlowDecay,
    SnnParams,
    StepSpectrum,
    gen_gaussian_spectrum,
    gen_snn,
    gen_snn_operator,
    load_csv,
    save_csv,
    snn_weights,
    spectrum_values,
    svd_thin,
)
from randskel.errors import BadShape, EmptyFactor, NonNumericCell, RaggedRows, ShapeMismatch
from randskel.testmat import SNN_DEFAULT_DENSITY
from oracles import names, size_cases, snn_factors_dense


class TestSnn:
    def test_rank_one_dense(self):
        params = SnnParams(m=6, n=5, r=1, s=np.array([1.0]), density=1.0, seed=0)
        A = gen_snn(params)
        f = svd_thin(A)
        assert f.rank == 1
        # singular value equals the product of the factor norms
        op = gen_snn_operator(params)
        x = op.x_factors.toarray()[:, 0]
        y = op.y_factors.toarray()[:, 0]
        assert abs(f.sigma[0] - np.linalg.norm(x) * np.linalg.norm(y)) < 1e-12

    def test_weights_profile(self):
        s = snn_weights(2, 100, 300)
        assert s[0] == 2.0
        assert s[99] == 2.0 / 100
        assert s[100] == 1.0 / 101
        assert (np.diff(s) <= 0).all()

    def test_nonnegative_over_seeds(self):
        for seed in range(50):
            params = SnnParams(m=20, n=25, r=5, s=snn_weights(2, 3, 5),
                               density=0.2, seed=seed)
            assert gen_snn(params).min() >= 0.0

    def test_deterministic(self):
        params = SnnParams(m=12, n=10, r=4, s=snn_weights(2, 2, 4),
                           density=0.3, seed=5)
        assert np.array_equal(gen_snn(params), gen_snn(params))

    def test_param_validation(self):
        with pytest.raises(BadShape):
            SnnParams(m=5, n=5, r=8, s=np.ones(8))
        with pytest.raises(BadShape):
            SnnParams(m=5, n=5, r=2, s=np.array([1.0, 2.0]))  # increasing

    @pytest.mark.parametrize("m, n, r, density, seed", [
        (300, 300, 300, SNN_DEFAULT_DENSITY, 0), (60, 60, 60, 0.2, 1),
        (200, 150, 100, SNN_DEFAULT_DENSITY, 3), (7, 5, 5, 0.05, 2), (6, 5, 2, 1.0, 4)])
    def test_factors_equal_the_dense_rule(self, m, n, r, density, seed):
        import scipy.sparse as sp

        params = SnnParams(m=m, n=n, r=r, s=snn_weights(2, min(2, r), r), density=density,
                           seed=seed)
        X, Y = snn_factors_dense(params)
        op = gen_snn_operator(params)
        for got, want in ((op.x_factors, sp.csr_matrix(X)), (op.y_factors, sp.csr_matrix(Y))):
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert gen_snn(params).tobytes() == ((X * params.s) @ Y.T).tobytes()

    def test_operator_memory_grows_with_nonzeros(self):
        # a dense m x r factor would take 160 MB; each CSR factor takes 6 MB
        m, r = 20000, 1000
        params = SnnParams(m=m, n=m, r=r, s=snn_weights(2, 100, r), seed=1)
        tracemalloc.start()
        try:
            op = gen_snn_operator(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.x_factors.nnz == pytest.approx(SNN_DEFAULT_DENSITY * m * r, rel=0.02)
        assert peak < m * r * 8 / 2, f"traced peak {peak / 1e6:.1f} MB"
        # no COO copy of the nonzeros: at most twice the two factors' bytes
        factors = sum(f.data.nbytes + f.indices.nbytes + f.indptr.nbytes
                      for f in (op.x_factors, op.y_factors))
        assert peak < 2 * factors, f"traced peak {peak / 1e6:.1f} MB"


class TestImplicitOperator:
    params = SnnParams(m=256, n=256, r=40, s=snn_weights(2, 10, 40),
                       density=0.05, seed=3)

    def test_matvec_zero(self):
        op = gen_snn_operator(self.params)
        assert np.array_equal(op.matvec(np.zeros(256)), np.zeros(256))

    def test_matvec_matches_densified(self):
        op = gen_snn_operator(self.params)
        A = op.to_dense()
        rng = np.random.default_rng(0)
        v = rng.standard_normal(256)
        assert np.linalg.norm(op.matvec(v) - A @ v) < 1e-12 * np.linalg.norm(A @ v)
        w = rng.standard_normal(256)
        assert np.linalg.norm(op.matvec_adjoint(w) - A.T @ w) < 1e-12 * np.linalg.norm(A.T @ w)

    def test_adjoint_identity(self):
        op = gen_snn_operator(self.params)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(256)
        w = rng.standard_normal(256)
        assert abs(op.matvec(v) @ w - v @ op.matvec_adjoint(w)) < 1e-12 * (
            np.linalg.norm(v) * np.linalg.norm(w))

    def test_row_column_extraction(self):
        op = gen_snn_operator(self.params)
        A = op.to_dense()
        J = np.array([3, 100, 7])
        I = np.array([0, 200, 11, 45])
        assert np.allclose(op.columns(J), A[:, J])
        assert np.allclose(op.rows(I), A[I, :])
        assert op.rows(I).flags.c_contiguous

    def test_shape_mismatch(self):
        op = gen_snn_operator(self.params)
        with pytest.raises(ShapeMismatch):
            op.matvec(np.zeros(10))


class TestSpectrumProfiles:
    def test_slow_decay_values(self):
        s = spectrum_values(SlowDecay(r1=20), 100)
        assert s[19] == 1.0
        assert abs(s[20] - 1 / np.sqrt(2)) < 1e-15

    def test_fast_decay_floor(self):
        s = spectrum_values(FastDecay(r1=20), 1500)
        assert s[19] == 1.0
        assert abs(s[20] - 0.99) < 1e-15
        assert s[-1] == 1e-3

    def test_step(self):
        s = spectrum_values(StepSpectrum(k=10, sigma1=1.5), 330)
        assert (s[:10] == 1.5).all()
        assert (s[10:] == 1.0).all()

    def test_explicit_checks_monotone(self):
        with pytest.raises(BadShape):
            spectrum_values(ExplicitSpectrum(values=np.array([1.0, 2.0])), 2)


class TestGaussianSpectrum:
    def test_spectrum_realized_exactly(self):
        A, U, sigma, V = gen_gaussian_spectrum(60, 40, SlowDecay(r1=5), seed=2, r=30)
        f = svd_thin(A)
        assert np.allclose(f.sigma[:30], sigma, atol=1e-10)
        assert np.linalg.norm(U.T @ U - np.eye(30), 2) < 1e-12
        assert np.linalg.norm((U * sigma) @ V.T - A) < 1e-12

    def test_step_sizing(self):
        # r = (1+beta) k with beta=32, k=10 -> 330; head/tail ratio is the gap
        k, beta = 10, 32
        r = (1 + beta) * k
        A, U, sigma, V = gen_gaussian_spectrum(r, r, StepSpectrum(k=k, sigma1=1.5),
                                               seed=3, r=r)
        assert sigma.size == 330
        assert sigma[0] / sigma[k] == 1.5


class TestCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(load_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_detected(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("a,b\n1,2\n")
        A = load_csv(p)
        assert A.shape == (1, 2)

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 7)) * np.exp(rng.standard_normal((10, 7)) * 5)
        p = tmp_path / "c.csv"
        save_csv(p, A)
        assert np.array_equal(load_csv(p), A)

    def test_ragged(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(RaggedRows):
            load_csv(p)

    @pytest.mark.parametrize("text, want", [
        ('"1",2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),  # quoted cells
        ("a,b\n1_0,2\n", [[10.0, 2.0]]),             # a digit separator
        ("\nx,y\n\n1,2\n", [[1.0, 2.0]]),           # blank lines around the header
    ])
    def test_cells_float_accepts(self, tmp_path, text, want):
        p = tmp_path / "f.csv"
        p.write_text(text)
        assert np.array_equal(load_csv(p), want)

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("a,b\n\n", "header but no data rows"),
    ])
    def test_no_data_rows(self, tmp_path, text, message):
        p = tmp_path / "g.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RaggedRows, match=message):
                load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(p)
        assert "(1, 1)" in str(exc.value)

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "binary.csv"
        p.write_bytes(b"\xff\xfe\x00\x01,2\n")
        with pytest.raises(NonNumericCell, match="binary.csv is not text"):
            load_csv(p)


_OP = gen_snn_operator(SnnParams(m=8, n=6, r=3, s=snn_weights(2, 1, 3), density=0.5, seed=0))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: SnnParams(m=5, n=5, r=2, s=np.ones(3)), BadShape, id="weights-length"),
    pytest.param(lambda: SnnParams(m=5, n=5, r=2, s=np.ones(2), density=0), BadShape,
                 id="density-0"),
    pytest.param(lambda: SnnParams(m=5, n=5, r=2, s=np.ones(2), density=1.5), BadShape,
                 id="density-above-1"),
    *[pytest.param(lambda density=density: SnnParams(m=5, n=5, r=2, s=np.ones(2),
                                                     density=density),
                   names("density", r"in \(0, 1\], got density="), id=f"density-{tag}")
      for tag, density in (("text", "0.5"), ("bool", True), ("nan", np.nan), ("inf", np.inf))],
    pytest.param(lambda: gen_snn(SnnParams(m=2, n=2, r=1, s=np.ones(1), density=1e-12)),
                 EmptyFactor, id="all-zero-factor"),
    pytest.param(lambda: _OP.matvec(np.ones(5)), ShapeMismatch, id="matvec-length"),
    pytest.param(lambda: _OP.matvec_adjoint(np.ones(6)), ShapeMismatch, id="adjoint-length"),
    pytest.param(lambda: _OP.matmat(np.ones((5, 2))), ShapeMismatch, id="matmat-rows"),
    pytest.param(lambda: _OP.rmatmat(np.ones((6, 2))), ShapeMismatch, id="rmatmat-rows"),
    pytest.param(lambda: _OP.columns([6]), BadShape, id="columns-out-of-range"),
    pytest.param(lambda: _OP.rows([-1]), BadShape, id="rows-out-of-range"),
    pytest.param(lambda: spectrum_values(StepSpectrum(5, 2.0), 3), BadShape, id="step-k>r"),
    pytest.param(lambda: spectrum_values(ExplicitSpectrum(np.ones(2)), 3), BadShape,
                 id="explicit-length"),
    pytest.param(lambda: spectrum_values("flat", 3), BadShape, id="unknown-profile"),
    pytest.param(lambda: gen_gaussian_spectrum(4, 3, SlowDecay(), r=4), BadShape,
                 id="gaussian-r>min(m,n)"),
    pytest.param(lambda: SnnParams(m=5, n=5, r=2, s=[np.inf, 1.0]), names("s", "finite"),
                 id="weights-inf"),
    pytest.param(lambda: spectrum_values(ExplicitSpectrum(np.array([np.inf, 1.0])), 2),
                 names("spectrum", "finite"), id="explicit-inf"),
    *size_cases("snn-m", "m", lambda m: SnnParams(m=m, n=5, r=2, s=np.ones(2)), 5, 0),
    *size_cases("snn-n", "n", lambda n: SnnParams(m=5, n=n, r=2, s=np.ones(2)), 5, 0),
    *size_cases("snn-r", "r", lambda r: SnnParams(m=5, n=5, r=r, s=np.ones(2)), 2, 0),
    *size_cases("spectrum-r", "r", lambda r: spectrum_values(SlowDecay(), r), 3, 0),
    *size_cases("step-k", "StepSpectrum.k", lambda k: spectrum_values(StepSpectrum(k, 2.0), 3),
                2, -1),
    *size_cases("gaussian-m", "m", lambda m: gen_gaussian_spectrum(m, 3, SlowDecay()), 4, 0),
    *size_cases("gaussian-n", "n", lambda n: gen_gaussian_spectrum(4, n, SlowDecay()), 3, 0),
    *size_cases("gaussian-r", "r", lambda r: gen_gaussian_spectrum(4, 3, SlowDecay(), r=r), 2, 0),
])
def test_documented_errors(call, error):
    with error if isinstance(error, pytest.RaisesExc) else pytest.raises(error):
        call()


def test_gaussian_spectrum_rank_defaults_to_min_dim():
    A, U, sigma, V = gen_gaussian_spectrum(5, 3, SlowDecay(r1=1), seed=0)
    assert sigma.shape == (3,) and U.shape == (5, 3) and V.shape == (3, 3)
    assert np.abs(A - (U * sigma) @ V.T).max() < 1e-14
