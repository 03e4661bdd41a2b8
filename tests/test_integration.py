"""Cross-module seams: embedding kinds through the pipeline, CSV matrices
through the CLI, the installed console script, and opt-in estimation paths."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randskel
from randskel import (
    make_srtt,
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
from oracles import dht_matrix, random_matrix


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


def test_module_entry_point(tmp_path):
    # the child imports the same randskel as this suite, however it was found
    src = str(Path(randskel.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "randskel.bench.cli", "balance", "--k", "3",
         "--alpha", "6", "--beta", "6", "--gaps", "1.3", "--trials", "1",
         "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "balance.csv").exists()
    assert (tmp_path / "balance.svg").exists()
