import re
import tracemalloc

import numpy as np
import pytest

from randskel import (
    SrttSketch,
    gen_snn_operator,
    make_embedding,
    make_gaussian,
    make_sparse_sign,
    make_srtt,
    select_columns_lupp,
    sketch_rows,
    SnnParams,
    snn_weights,
)
from randskel.errors import BadShape, ShapeMismatch
from oracles import dht_matrix, names, size_cases, sparse_sign_floyd, srtt_apply_one_shot


class TestGaussian:
    def test_deterministic_per_seed(self):
        a = make_gaussian(2, 5, seed=7)
        b = make_gaussian(2, 5, seed=7)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, make_gaussian(2, 5, seed=8).matrix)

    def test_moments(self):
        # >= 1e5 entries: mean within 3 standard errors, variance within 5%
        l, m = 100, 1200
        g = make_gaussian(l, m, seed=0).matrix
        n_entries = g.size
        se = (1 / np.sqrt(l)) / np.sqrt(n_entries)
        assert abs(g.mean()) < 3 * se
        assert abs(g.var() - 1 / l) < 0.05 / l

    def test_basis_extraction(self):
        op = make_gaussian(3, 6, seed=1)
        e4 = np.zeros(6)
        e4[3] = 1.0
        assert np.array_equal(op.apply(e4), op.matrix[:, 3])

    def test_bad_shapes(self):
        with pytest.raises(BadShape):
            make_gaussian(0, 5)
        with pytest.raises(BadShape):
            make_gaussian(6, 5)


class TestSrtt:
    def test_full_sampling_is_isometry(self):
        m = 32
        op = make_srtt(m, m, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(m)
            assert abs(np.linalg.norm(op.apply(x)) - np.linalg.norm(x)) < 1e-10

    @pytest.mark.parametrize("m", [128, 127, 300])
    def test_transform_orthonormal_materialized(self, m):
        H = dht_matrix(m)
        assert np.linalg.norm(H.T @ H - np.eye(m), 2) < 1e-10
        # operator with trivial permutation/signs applies exactly H
        op = SrttSketch(out_dim=m, in_dim=m, seed=None,
                        rows=np.arange(m), signs=np.ones(m),
                        perm_in=np.arange(m))
        X = op.to_dense()
        assert np.abs(X - H).max() < 1e-12
        assert np.abs(op.apply(np.eye(m)) - H).max() < 1e-12

    def test_subsampled_matches_oracle(self):
        l, m = 40, 300
        op = make_srtt(l, m, seed=12)
        # sqrt(m/l) * (rows of H) @ diag(signs) @ P, where P @ x = x[perm_in]
        want = np.sqrt(m / l) * dht_matrix(m)[op.rows] * op.signs @ np.eye(m)[op.perm_in]
        assert np.abs(op.to_dense() - want).max() < 1e-12
        assert np.abs(op.apply(np.eye(m)) - want).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 17, 40])
    @pytest.mark.parametrize("m", [127, 300, 5000])
    def test_tiled_apply_equals_one_shot(self, m, n):
        # m spans one and several row tiles, n one and several transform chunks
        rng = np.random.default_rng(m + n)
        A = rng.standard_normal((m, n))
        op = make_srtt(min(40, m), m, seed=n)
        assert np.array_equal(op.apply(A), srtt_apply_one_shot(op, A))
        assert np.array_equal(op.apply(A[:, 0]), srtt_apply_one_shot(op, A[:, :1])[:, 0])

    def test_constant_vector_concentrates(self):
        # with signs and permutation forced trivial the transform piles the
        # energy of a constant vector onto the first coefficient
        m = 64
        op = SrttSketch(out_dim=m, in_dim=m, seed=None,
                        rows=np.arange(m), signs=np.ones(m),
                        perm_in=np.arange(m))
        y = op.apply(np.ones(m))
        assert abs(y[0] - np.sqrt(m)) < 1e-10
        assert np.abs(y[1:]).max() < 1e-10

    def test_isotropy_monte_carlo(self):
        m, l = 64, 16
        rng = np.random.default_rng(4)
        x = rng.standard_normal(m)
        acc = 0.0
        n_ops = 2000
        for seed in range(n_ops):
            acc += np.linalg.norm(make_srtt(l, m, seed=seed).apply(x)) ** 2
        assert abs(acc / n_ops - np.linalg.norm(x) ** 2) < 0.05 * np.linalg.norm(x) ** 2


class TestSparseSign:
    def test_column_sparsity_exact(self):
        op = make_sparse_sign(10, 30, zeta=4, seed=2)
        dense = op.to_dense()
        assert ((dense != 0).sum(axis=0) == 4).all()
        vals = np.abs(dense[dense != 0])
        assert np.allclose(vals, 1 / np.sqrt(4))

    def test_default_zeta(self):
        assert make_sparse_sign(20, 40, seed=0).zeta == 8
        assert make_sparse_sign(5, 40, seed=0).zeta == 5

    def test_one_row_holds_one_sign_per_column(self):
        op = make_sparse_sign(1, 30, seed=0)
        assert op.zeta == 1 and np.array_equal(np.abs(op.to_dense()), np.ones((1, 30)))

    def test_zeta_bounds(self):
        with pytest.raises(BadShape):
            make_sparse_sign(10, 20, zeta=1)
        with pytest.raises(BadShape):
            make_sparse_sign(10, 20, zeta=11)

    def test_isotropy_monte_carlo(self):
        m, l = 64, 16
        rng = np.random.default_rng(5)
        x = rng.standard_normal(m)
        acc = 0.0
        n_ops = 2000
        for seed in range(n_ops):
            acc += np.linalg.norm(make_sparse_sign(l, m, zeta=8, seed=seed).apply(x)) ** 2
        assert abs(acc / n_ops - np.linalg.norm(x) ** 2) < 0.05 * np.linalg.norm(x) ** 2

    def test_matches_densified_matmul(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((30, 12))
        op = make_sparse_sign(7, 30, zeta=3, seed=9)
        assert np.abs(op.apply(A) - op.to_dense() @ A).max() < 1e-13


    def test_supports_are_uniform_subsets(self):
        # every 3-subset of 5 rows is about equally likely (10 subsets)
        m = 20000
        op = make_sparse_sign(5, m, zeta=3, seed=1)
        rows = np.sort(op._csc.indices.reshape(m, 3), axis=1)
        assert (np.diff(rows, axis=1) > 0).all()
        _, counts = np.unique(rows @ np.array([1, 10, 100]), return_counts=True)
        assert counts.size == 10 and np.abs(counts / (m / 10) - 1).max() < 0.1

    @pytest.mark.parametrize("zeta", [2, 8, 64])
    def test_every_zeta_up_to_l(self, zeta):
        dense = make_sparse_sign(64, 500, zeta=zeta, seed=zeta).to_dense()
        assert ((dense != 0).sum(axis=0) == zeta).all()

    @pytest.mark.parametrize("l", [64, 640])
    def test_memory_is_m_zeta(self, l):
        # an m x l index table would take 16 m l bytes: 20 MB at l = 64
        m, zeta = 20000, 8
        tracemalloc.start()
        try:
            make_sparse_sign(l, m, zeta=zeta, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * m * zeta * 8, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse_sign"])
def test_selection_memory_is_a_few_blocks(kind):
    # on a wide input, a selection holds a few m x l blocks and the l x n
    # sketch work; an n x m copy of the input would take 32 MB here
    m, n, l = 1024, 4096, 64
    A = np.random.default_rng(0).standard_normal((m, n))
    tracemalloc.start()
    try:
        select_columns_lupp(A, l, 0, seed=1, embedding=kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 * m * l + 5 * l * n) * 8, f"traced peak {peak / 1e6:.1f} MB"


class TestSketchRows:
    def test_identity_returns_operator(self):
        op = make_gaussian(4, 9, seed=1)
        assert np.allclose(sketch_rows(op, np.eye(9)), op.to_dense())

    def test_shape_mismatch(self):
        op = make_gaussian(4, 9, seed=1)
        with pytest.raises(ShapeMismatch):
            sketch_rows(op, np.ones((8, 3)))

    def test_full_row_rank_on_lowrank_input(self):
        # l=10 sketch of a rank-20 matrix keeps full row rank in every trial
        rng = np.random.default_rng(7)
        A = rng.standard_normal((100, 20)) @ rng.standard_normal((20, 50))
        for seed in range(1000):
            X = sketch_rows(make_gaussian(10, 100, seed=seed), A)
            s = np.linalg.svd(X, compute_uv=False)
            assert s[-1] > 1e-10

    def test_pivot_invariance_under_operator_scaling(self):
        from randskel import cpqr, lupp
        rng = np.random.default_rng(8)
        A = rng.standard_normal((40, 25))
        X = sketch_rows(make_gaussian(6, 40, seed=3), A)
        for c in (2.0, 8.0, 0.25):
            assert np.array_equal(lupp(X.T).perm, lupp((c * X).T).perm)
            assert np.array_equal(cpqr(X).perm, cpqr(c * X).perm)

    @pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse_sign"])
    def test_implicit_operator_agrees_with_dense(self, kind):
        params = SnnParams(m=96, n=80, r=30, s=snn_weights(2, 10, 30),
                           density=0.1, seed=11)
        op_mat = gen_snn_operator(params)
        dense = op_mat.to_dense()
        emb = make_embedding(kind, 12, 96, seed=5)
        got = sketch_rows(emb, op_mat)
        want = emb.to_dense() @ dense
        denom = np.linalg.norm(want)
        assert np.linalg.norm(got - want) < 1e-12 * max(denom, 1.0)


@pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse_sign"])
def test_apply_t_is_apply_of_the_transpose(kind):
    rng = np.random.default_rng(10)
    A = rng.standard_normal((30, 50))
    op = make_embedding(kind, 8, 50, seed=4)
    got = op.apply_t(A)
    assert got.flags.c_contiguous and np.array_equal(got, op.apply(A.T).T)
    with pytest.raises(ShapeMismatch):
        op.apply_t(np.ones((50, 30)))


def test_reproducible_sketch_output():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((50, 20))
    for kind in ("gaussian", "srtt", "sparse_sign"):
        a = make_embedding(kind, 8, 50, seed=123).apply(A)
        b = make_embedding(kind, 8, 50, seed=123).apply(A)
        assert np.array_equal(a, b)


def test_numpy_string_kind_is_the_kind():
    for kind in ("gaussian", "srtt", "sparse_sign"):
        got, want = (make_embedding(k, 3, 8, seed=0).to_dense() for k in (np.str_(kind), kind))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("l, m, zeta", [(64, 5000, 8), (64, 5000, 64), (9, 700, 2), (9, 700, 9),
                                         (2, 3, 2), (40, 3000, 37), (700, 1500, 700)])
def test_sparse_sign_supports_match_floyd_oracle(l, m, zeta):
    op = make_sparse_sign(l, m, zeta=zeta, seed=[l, m, zeta])
    supports, signs = sparse_sign_floyd(l, m, zeta, [l, m, zeta])
    assert np.array_equal(op._csc.indices, supports.ravel())
    assert np.array_equal(op._csc.data, (signs / np.sqrt(zeta)).ravel())


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: make_gaussian(2, 5, seed=0).apply(np.ones((5, 2, 2))), BadShape,
                 id="apply-3-d"),
    pytest.param(lambda: make_embedding("fourier", 2, 5), BadShape, id="unknown-kind"),
    pytest.param(lambda: make_embedding(["gaussian"], 2, 5), BadShape, id="unhashable-kind"),
    *[pytest.param(lambda kind=kind: make_embedding(kind, 2, 5), names(
        "kind", f"one of 'gaussian', 'srtt', 'sparse_sign', got {re.escape(repr(kind))}$"),
        id=f"kind-{tag}") for tag, kind in (("unknown", "fourier"), ("array", np.array(["srtt"])))],
    pytest.param(lambda: make_gaussian(2, 3, seed=0).apply("abc"), BadShape, id="apply-text"),
    pytest.param(lambda: make_gaussian(2, 3, seed=0).apply([[1, 2], [3], [4, 5]]), BadShape,
                 id="apply-ragged"),
    *size_cases("gaussian-l", "l", lambda l: make_gaussian(l, 5), 2, 6),
    *size_cases("srtt-m", "m", lambda m: make_srtt(1, m), 5, 0),
    *size_cases("sparse-sign-zeta", "zeta", lambda z: make_sparse_sign(3, 10, zeta=z), 2, 4),
    pytest.param(lambda: make_sparse_sign(np.int64(3), np.int64(10), zeta=1), names("zeta"),
                 id="int64-sizes-accepted"),
    *[pytest.param(lambda kind=kind, value=value: make_embedding(kind, 3, 5, seed=0).apply(
        np.full(5, value)), pytest.raises(BadShape, match="^operand contains non-finite entries$"),
        id=f"apply-{kind}-{tag}")
      for kind in ("gaussian", "srtt", "sparse_sign") for tag, value in (("nan", np.nan),
                                                                          ("inf", np.inf))],
    *[pytest.param(lambda kind=kind: make_embedding(kind, 3, 5, seed=0).apply(np.eye(5) * 1j),
                   pytest.raises(BadShape, match="^operand must be a real numeric array, "
                                 "got complex128$"), id=f"apply-{kind}-complex")
      for kind in ("gaussian", "srtt", "sparse_sign")],
    pytest.param(lambda: make_gaussian(3, 5, seed=0).apply_t(np.ones((2, 5)) * (1 + 1j)),
                 pytest.raises(BadShape, match="^A must be a real numeric array, got complex128$"),
                 id="apply-t-complex"),
    pytest.param(lambda: make_srtt(3, 5, seed=0).apply(np.eye(5) * [1, 1, np.nan, 1, 1]),
                 pytest.raises(BadShape, match="non-finite"), id="apply-matrix-nan"),
    pytest.param(lambda: make_gaussian(3, 5, seed=0).apply_t(np.full((2, 5), -np.inf)),
                 pytest.raises(BadShape, match="^A contains non-finite entries$"),
                 id="apply-t-inf"),
    pytest.param(lambda: sketch_rows("gaussian", np.ones((5, 3))),
                 pytest.raises(BadShape, match="^op must be an embedding"), id="sketch-rows-op"),
])
def test_documented_errors(call, error):
    with error if isinstance(error, pytest.RaisesExc) else pytest.raises(error):
        call()
