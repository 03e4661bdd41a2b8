"""Cross-module seams: embedding kinds through the pipeline, CSV matrices
through the CLI, the installed console script, and opt-in estimation paths."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randskel
from randskel import (
    canonical_angles,
    canonical_angles_cos,
    estimate_cur_from_skeletons,
    make_embedding,
    make_gaussian,
    make_srtt,
    power_iter_plain,
    power_iter_stable,
    sketch_rows,
    posterior_eta,
    prior_reference_bound,
    select_leverage,
    select_streaming,
    streaming_interp_coeffs,
    unbiased_estimates,
    posterior_gap,
    posterior_residuals,
    posterior_simple,
    randomized_svd,
    rangefinder_error,
    save_csv,
    select_columns_cpqr,
    select_columns_lupp,
    select_deim,
    gen_snn_operator,
    snn_weights,
    SnnParams,
    build_column_id,
    build_cur_stable,
    build_row_id,
    build_two_sided_id,
)
from randskel.errors import BadShape
from randskel.bench.cli import run
from randskel.bench.experiments import METHODS
from randskel.dense import svdvals
from oracles import MatvecOnly, dht_matrix, random_matrix


@pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse_sign"])
def test_randomized_svd_with_each_embedding(kind):
    rng = np.random.default_rng(0)
    A = random_matrix(rng, 50, 40, spectrum=np.logspace(0, -3, 25))
    lr = randomized_svd(A, 10, q=1, seed=3, embedding_kind=kind)
    sigma = np.linalg.svd(A, compute_uv=False)
    assert (lr.sigma_hat <= sigma[:10] + 1e-10).all()
    err = np.linalg.norm(A - lr.approx()) / np.linalg.norm(A)
    assert err < 0.2


@pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse_sign"])
def test_selection_with_each_embedding(kind):
    rng = np.random.default_rng(1)
    A = random_matrix(rng, 60, 45, rank=8)
    sel = select_columns_lupp(A, 8, 0, seed=2, embedding=kind)
    C = A[:, sel.J_s]
    res = A - C @ np.linalg.pinv(C) @ A
    assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(A)


def test_target_rank_oversampling_default():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((80, 60))
    lr = randomized_svd(A, target_rank=5, seed=1)
    assert lr.l == 15  # k + 10


def test_srtt_orthonormal_up_to_512():
    H = dht_matrix(512)
    assert np.linalg.norm(H.T @ H - np.eye(512), 2) < 1e-10
    # operator route at a non-power-of-two length
    op = make_srtt(300, 300, seed=4)
    x = np.random.default_rng(5).standard_normal(300)
    assert abs(np.linalg.norm(op.apply(x)) - np.linalg.norm(x)) < 1e-10


def test_posterior_gap_estimated_norms_close():
    rng = np.random.default_rng(6)
    A = random_matrix(rng, 100, 90, spectrum=np.r_[np.ones(5), 0.9 ** np.arange(60)])
    sigma = np.linalg.svd(A, compute_uv=False)
    lr = randomized_svd(A, 20, q=1, seed=7)
    exact = posterior_gap(A, lr, sigma, 5)
    est = posterior_gap(A, lr, sigma, 5, estimate_spectral=True,
                        estimate_iters=100, estimate_seed=8)
    assert est.norm_E33_spec <= exact.norm_E33_spec + 1e-12
    assert est.norm_E33_spec >= 0.9 * exact.norm_E33_spec
    assert est.norm_E3132_fro == exact.norm_E3132_fro


@pytest.mark.parametrize("select", [select_columns_lupp, select_columns_cpqr, select_deim],
                         ids=lambda f: f.__name__)
def test_implicit_operator_through_selection_and_cur(select):
    params = SnnParams(m=300, n=280, r=60, s=snn_weights(2, 20, 60),
                       density=0.05, seed=9)
    op = gen_snn_operator(params)
    A = op.to_dense()
    sel_op = select(op, 12, 1, seed=10)
    sel_dn = select(A, 12, 1, seed=10)
    assert np.array_equal(sel_op.J_s, sel_dn.J_s)
    assert np.array_equal(sel_op.I_s, sel_dn.I_s)
    cur = build_cur_stable(op, sel_op.I_s, sel_op.J_s)
    cur_d = build_cur_stable(A, sel_dn.I_s, sel_dn.J_s)
    assert np.allclose(cur.reconstruct(), cur_d.reconstruct(), atol=1e-10)


def _sparse_input():
    """A 2000 x 500 CSR matrix with 1 % nonzeros and its dense form."""
    from scipy.sparse import random as sparse_random

    S = sparse_random(2000, 500, density=0.01, format="csr", random_state=12)
    return S, S.toarray()


def _close(got, want, rtol=1e-12):
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse_sign"])
def test_sparse_input_through_linear_operator(kind):
    # a sparse matrix runs through scipy's LinearOperator, with its slices
    # derived from products: the skeletons are the dense form's
    from scipy.sparse.linalg import aslinearoperator

    S, D = _sparse_input()
    op = aslinearoperator(S)
    for select in (select_columns_lupp, select_columns_cpqr, select_deim):
        for q in (0, 1):
            got, want = (select(A, 20, q, seed=3, embedding=kind) for A in (op, D))
            assert np.array_equal(got.J_s, want.J_s) and np.array_equal(got.I_s, want.I_s)
    got, want = (randomized_svd(A, 20, q=1, seed=4, embedding_kind=kind) for A in (op, D))
    assert _close(got.sigma_hat, want.sigma_hat)
    for power_iter in (power_iter_plain, power_iter_stable):
        got, want = (power_iter(A, make_embedding(kind, 20, 500, seed=5), 1) for A in (op, D))
        assert _close(got, want, 1e-10)
    got, want = (sketch_rows(make_embedding(kind, 20, 2000, seed=6), A) for A in (op, D))
    assert _close(got, want)
    if kind == "gaussian":
        got, want = (select_leverage(A, 10, 20, seed=7) for A in (op, D))
        assert np.array_equal(got.J_s, want.J_s) and np.array_equal(got.I_s, want.I_s)
        sel = select_columns_lupp(D, 20, seed=8)
        got, want = (build_cur_stable(A, sel.I_s, sel.J_s) for A in (op, D))
        assert np.array_equal(got.C, want.C) and np.array_equal(got.R, want.R)
        assert _close(got.reconstruct(), want.reconstruct(), 1e-10)


def test_linear_operator_equals_matvec_only_bitwise():
    from scipy.sparse.linalg import aslinearoperator

    D = np.random.default_rng(13).standard_normal((300, 200))
    for call in (lambda A: select_columns_lupp(A, 20, 1, seed=3).J_s,
                 lambda A: select_deim(A, 20, 1, seed=3).I_s,
                 lambda A: randomized_svd(A, 20, q=1, seed=4).U_hat,
                 lambda A: build_cur_stable(A, np.arange(20), np.arange(20)).U_mid):
        assert call(aslinearoperator(D)).tobytes() == call(MatvecOnly(D)).tobytes()


@pytest.mark.parametrize("call", [
    lambda op, lr: build_column_id(op, [0, 1]),
    lambda op, lr: build_row_id(op, [0, 1]),
    lambda op, lr: build_two_sided_id(op, [0, 1], [0, 1]),
    lambda op, lr: posterior_simple(op, lr.U_hat, np.linspace(2, 1, 20), 2),
    lambda op, lr: posterior_gap(op, lr, np.linspace(2, 1, 20), 2),
    lambda op, lr: posterior_residuals(op, lr, 2),
    lambda op, lr: rangefinder_error(op, np.ones((2, 50))),
], ids=["build_column_id", "build_row_id", "build_two_sided_id",
        "posterior_simple", "posterior_gap", "posterior_residuals", "rangefinder_error"])
def test_dense_only_functions_reject_matvec_operator(call):
    params = SnnParams(m=60, n=50, r=20, s=snn_weights(2, 5, 20), density=0.1, seed=1)
    op = gen_snn_operator(params)
    lr = randomized_svd(op, 5, q=0, seed=2)
    with pytest.raises(BadShape):
        call(op, lr)


def test_cli_csv_matrix_route(tmp_path):
    rng = np.random.default_rng(11)
    A = random_matrix(rng, 40, 30, spectrum=np.logspace(0, -2, 20))
    path = tmp_path / "m.csv"
    save_csv(path, A)
    out = tmp_path / "out"
    code = run(["cur-accuracy", "--matrix", f"csv:{path}", "--ranks", "4",
                "--methods", "rand-lupp", "--trials", "1", "--seed", "0",
                "--out", str(out)])
    assert code == 0
    assert (out / "cur_accuracy.csv").exists()
    code = run(["angles", "--matrix", f"csv:{path}", "--ranks", "8", "--q", "0",
                "--k", "4", "--trials", "1", "--out", str(out)])
    assert code == 0
    assert (out / "angles.csv").exists()


def test_console_script_installed(tmp_path):
    exe = shutil.which("randskel-bench")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run([exe, "cur-accuracy", "--matrix",
                           "snn:40x40,r=40,a=2,r1=10,density=0.3",
                           "--ranks", "4", "--methods", "rand-lupp",
                           "--trials", "1", "--seed", "0",
                           "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cur_accuracy.csv").exists()


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports the same
    randskel as this suite, however it was found."""
    src = str(Path(randskel.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point(tmp_path):
    proc = _fresh_python(
        "-m", "randskel.bench.cli", "balance", "--k", "3",
        "--alpha", "6", "--beta", "6", "--gaps", "1.3", "--trials", "1",
        "--seed", "0", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "balance.csv").exists()
    assert (tmp_path / "balance.svg").exists()


def test_no_scipy_linalg_or_sparse_on_import_or_in_angles(tmp_path):
    # randskel's LAPACK is numpy's: importing scipy.linalg would load scipy's
    # OpenBLAS, a second runtime with threads of its own; scipy.sparse is
    # needed by sparse-sign embeddings and SNN operators only
    proc = _fresh_python("-c", f"""
import sys
import randskel, randskel.bench.cli
assert randskel.bench.cli.run([
    "angles", "--matrix", "gauss:100x100,profile=fast,r=80", "--ranks", "16",
    "--q", "0,1", "--k", "8", "--trials", "1", "--seed", "3",
    "--estimate-trials", "2", "--out", {str(tmp_path)!r}]) == 0
# the sparse fields' annotations resolve without scipy.sparse
import typing
from randskel.sketch import SparseSignSketch
from randskel.testmat import ImplicitSnnOperator
typing.get_type_hints(SparseSignSketch), typing.get_type_hints(ImplicitSnnOperator)
print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse"))))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_blas_threads_sets_scipy_runtime_loaded_after_first_use():
    # scipy's OpenBLAS loads when a caller imports scipy.linalg, which may
    # come after blas_threads has looked for runtimes once
    proc = _fresh_python("-c", """
from randskel.dense import _blas_runtimes, blas_threads
with blas_threads(1):
    print([get() for _, get in _blas_runtimes()])
import scipy.linalg
before = [get() for _, get in _blas_runtimes()]
with blas_threads(1):
    print([get() for _, get in _blas_runtimes()])
print([get() for _, get in _blas_runtimes()] == before)
""")
    assert proc.returncode == 0, proc.stderr
    numpy_only, both, restored = proc.stdout.splitlines()
    assert numpy_only == "[1]" and both == "[1, 1]" and restored == "True"


def test_no_numpy_linalg_solver_at_run_time(monkeypatch, tmp_path):
    # every factorization and solve goes through randskel.dense; numpy's
    # solvers, which hold the GIL and may run in another LAPACK runtime, raise
    def forbid(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    A = random_matrix(np.random.default_rng(12), 40, 30, spectrum=np.logspace(0, -3, 20))
    for name in ("svd", "solve", "lstsq", "matrix_rank", "pinv", "inv", "qr"):
        monkeypatch.setattr(np.linalg, name, forbid(name))
    for select in (select_columns_lupp, select_columns_cpqr, select_deim):
        sel = select(A, 6, 1, seed=13)
        build_column_id(A, sel.J_s), build_row_id(A, sel.I_s)
        build_two_sided_id(A, sel.I_s, sel.J_s), build_cur_stable(A, sel.I_s, sel.J_s)
        posterior_eta(sel.X, sel.J_s)
        estimate_cur_from_skeletons(A[:, sel.J_s], A[np.ix_(sel.I_s, sel.J_s)], A[sel.I_s],
                                    allow_unstable=True)
    select_leverage(A, 4, 6, seed=14)
    stream = select_streaming([A[:, :17], A[:, 17:]], 6, seed=15, m=40, n=30)
    streaming_interp_coeffs(stream)
    lr = randomized_svd(A, 8, q=1, seed=16)
    sigma = svdvals(A)
    posterior_simple(A, lr.U_hat, sigma, 4), posterior_gap(A, lr, sigma, 4)
    posterior_residuals(A, lr, 4), rangefinder_error(A, stream.X)
    canonical_angles(lr.U_hat, A[:, :4]), canonical_angles_cos(lr.U_hat, A[:, :4])
    unbiased_estimates(sigma, 4, 8, 1, 2, seed=17)
    G = make_gaussian(8, 30, seed=18).to_dense()
    V = randomized_svd(A, 20, seed=19).V_hat
    prior_reference_bound(sigma, 4, 8, 0, V[:, :4].T @ G.T, V[:, 4:].T @ G.T)
    for args in (["cur-accuracy", "--matrix", "snn:40x40,r=40,a=2,r1=10,density=0.3",
                  "--ranks", "4", "--methods", ",".join(METHODS), "--trials", "1"],
                 ["angles", "--matrix", "gauss:60x50,profile=slow,r=40", "--ranks", "12",
                  "--q", "0,1", "--k", "4", "--trials", "1", "--estimate-trials", "2"],
                 ["balance", "--k", "3", "--alpha", "6", "--beta", "6", "--gaps", "1.3",
                  "--trials", "1"],
                 ["timing", "pivot", "--sizes", "64", "--ranks", "16", "--repeats", "1"]):
        assert run(args + ["--seed", "0", "--out", str(tmp_path / args[0])]) == 0, args


#: The entries of ``randskel.dense`` that validate their input (``as_matrix``):
#: for data from outside the library only.
CHECKED_ENTRIES = {"qr_ortho", "svd_thin", "svdvals", "lupp", "cpqr"}


def test_library_calls_no_checked_entry():
    # inside the library every array is finite once a public call has checked
    # its inputs, so modules reach the unchecked kernels (dense._qr, _gesdd,
    # _lu_pivots, _cpqr_pivots, solve_upper) and scan nothing twice; only the
    # benchmark experiments under bench/, which call the library as a user does,
    # call a checked entry. No other exception exists.
    src = Path(__file__).resolve().parents[1] / "src" / "randskel"
    found = []
    for path in sorted(src.rglob("*.py")):
        if "bench" in path.relative_to(src).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if name in CHECKED_ENTRIES:
                    found.append(f"{path.relative_to(src)}:{node.lineno} {name}")
    assert not found, f"call the unchecked kernel instead at {found}"


@pytest.mark.parametrize("exponent", [-560, 530])
def test_rank_decisions_do_not_depend_on_scale(exponent):
    # 2**exponent is exact in binary, so every rank test and pivot sees the
    # same relative values; the entries' squares underflow (-560) or
    # overflow (530), and RuntimeWarnings are errors in this suite
    from randskel import qr_ortho
    from randskel.errors import RandskelError

    A0 = np.random.default_rng(20).standard_normal((60, 40))
    A = np.ldexp(A0, exponent)
    assert qr_ortho(A).shape == qr_ortho(A0).shape
    for select in (select_columns_lupp, select_columns_cpqr, select_deim):
        want, got = select(A0, 10, 0, seed=21), select(A, 10, 0, seed=21)
        assert np.array_equal(got.J_s, want.J_s) and np.array_equal(got.I_s, want.I_s)
        assert got.rank_detected == want.rank_detected
        assert build_cur_stable(A, got.I_s, got.J_s).U_mid.shape == (10, 10)
    for q in (0, 1):
        assert randomized_svd(A, 10, q=q, seed=22).l == randomized_svd(A0, 10, q=q, seed=22).l
    lr = randomized_svd(A, 10, seed=22)
    sigma = svdvals(A)
    try:
        report = posterior_residuals(A, lr, 4).gap(sigma)
    except RandskelError:
        return
    want = posterior_residuals(A0, randomized_svd(A0, 10, seed=22), 4).gap(svdvals(A0))
    assert report.valid == want.valid
    assert report.bounds["Uk_Ul_spec"] == pytest.approx(want.bounds["Uk_Ul_spec"], rel=1e-10)
