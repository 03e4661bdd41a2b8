"""Experiment drivers behind the benchmark CLI.

Each driver returns a list of :class:`Row` records (one metric per row) in a
deterministic order; wall-clock nanoseconds ride along in a separate column
so reruns with the same seed produce byte-identical metric columns.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..angles import (
    PriorBoundInputs,
    canonical_angles,
    pad_spectrum,
    posterior_residuals,
    prior_reference_bound,
    prior_space_agnostic,
    unbiased_estimates,
    BalanceConfig,
    balance_phi,
)
from ..dense import cpqr, lupp, qr_ortho, svd_thin
from ..errors import RandskelError, RankDeficient, SingularSkeleton, UnknownMethod
from ..rangefinder import randomized_svd
from ..sketch import make_embedding
from ..skeleton import (
    build_cur_stable,
    select_columns_cpqr,
    select_columns_lupp,
    select_deim,
    select_leverage,
)
from .matrices import realize_matrix

CSV_COLUMNS = ("experiment", "method", "matrix", "param_l", "param_q",
               "trial", "metric", "value", "nanos")


@dataclass(frozen=True)
class Row:
    experiment: str
    method: str
    matrix: str
    param_l: object
    param_q: object
    trial: int
    metric: str
    value: float
    nanos: int

    def as_record(self):
        if not np.isfinite(self.value):
            raise RandskelError(f"non-finite metric value in row {self!r}")
        return (self.experiment, self.method, self.matrix, self.param_l,
                self.param_q, self.trial, self.metric,
                format(self.value, ".17g"), self.nanos)


def write_rows(path, rows):
    """Write ``rows`` as CSV at ``path``, all or nothing: every record is
    validated before a temporary file is written and renamed into place."""
    import csv as _csv

    records = [row.as_record() for row in rows]
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            _csv.writer(fh, lineterminator="\n").writerows([CSV_COLUMNS] + records)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def worker_count():
    """Worker pool size; capped by the RANDSKEL_THREADS environment variable."""
    cap = os.environ.get("RANDSKEL_THREADS", "")
    avail = os.cpu_count() or 1
    if cap.strip():
        return max(1, min(avail, int(cap)))
    return max(1, min(avail, 8))


def _run_seed(base_seed, *indices):
    """Derived, collision-free substream for one (method, l, trial) cell."""
    return np.random.SeedSequence([int(base_seed)] + [int(i) for i in indices])


# --- skeletonization accuracy -------------------------------------------------

METHODS = ("rand-lupp", "rand-lupp-1piter", "rand-cpqr", "rand-cpqr-1piter",
           "rsvd-deim", "rsvd-ls")


def _select(method, A, l, seed):
    if method == "rand-lupp":
        return select_columns_lupp(A, l, 0, seed)
    if method == "rand-lupp-1piter":
        return select_columns_lupp(A, l, 1, seed)
    if method == "rand-cpqr":
        return select_columns_cpqr(A, l, 0, seed)
    if method == "rand-cpqr-1piter":
        return select_columns_cpqr(A, l, 1, seed)
    if method == "rsvd-deim":
        return select_deim(A, l, 0, seed)
    if method == "rsvd-ls":
        # the accuracy protocol treats the target rank and sample size as equal
        return select_leverage(A, l, l, seed)
    raise UnknownMethod(f"unknown method {method!r}")


def run_cur_accuracy(cfg):
    """Relative CUR errors versus the truncated-SVD baseline, per (method, l, trial)."""
    for m in cfg.methods:
        if m not in METHODS:
            raise UnknownMethod(f"unknown method {m!r} (choose from {', '.join(METHODS)})")
    bundle = realize_matrix(cfg.matrix, seed=cfg.seed)
    A = bundle.dense()
    fro_A = np.linalg.norm(A)
    if fro_A == 0.0:
        raise RankDeficient("all-zero matrix: relative errors undefined")
    sigma = svd_thin(A).sigma
    tail_sq = np.concatenate([np.cumsum((sigma ** 2)[::-1])[::-1], [0.0]])

    rows = []
    for l in cfg.ranks:
        opt_fro = float(np.sqrt(tail_sq[l]) / fro_A)
        opt_spec = float((sigma[l] if l < sigma.size else 0.0) / sigma[0])
        rows.append(Row("cur_accuracy", "baseline", cfg.matrix, l, 0, 0,
                        "opt_fro", opt_fro, 0))
        rows.append(Row("cur_accuracy", "baseline", cfg.matrix, l, 0, 0,
                        "opt_spec", opt_spec, 0))

    def one(method, l, trial):
        seed = _run_seed(cfg.seed, METHODS.index(method), l, trial)
        t0 = time.perf_counter_ns()
        try:
            sel = _select(method, A, l, seed)
            cur = build_cur_stable(A, sel.I_s, sel.J_s)
        except SingularSkeleton as exc:
            # data-dependent: sampled skeletons can be linearly dependent on
            # spiky inputs; record the failure instead of aborting the sweep
            print(f"cur_accuracy: {method} l={l} trial={trial} failed: {exc}",
                  file=sys.stderr)
            q = 1 if method.endswith("1piter") else 0
            return [Row("cur_accuracy", method, cfg.matrix, l, q, trial,
                        "failed", 1.0, time.perf_counter_ns() - t0)]
        nanos = time.perf_counter_ns() - t0
        E = A - cur.reconstruct()
        err_fro = float(np.linalg.norm(E) / fro_A)
        err_spec = float(np.linalg.norm(E, 2) / sigma[0])
        q = 1 if method.endswith("1piter") else 0
        out = [
            Row("cur_accuracy", method, cfg.matrix, l, q, trial, "err_fro",
                err_fro, nanos),
            Row("cur_accuracy", method, cfg.matrix, l, q, trial, "err_spec",
                err_spec, nanos),
        ]
        if sel.eta_column is not None:
            out.append(Row("cur_accuracy", method, cfg.matrix, l, q, trial,
                           "eta_col", float(sel.eta_column), nanos))
        return out

    cells = [(m, l, t) for m in cfg.methods for l in cfg.ranks
             for t in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        results = list(pool.map(lambda c: one(*c), cells))
    for chunk in results:  # pool.map preserves submission order
        rows.extend(chunk)
    return rows


# --- timing -------------------------------------------------------------------

def _time_ns(fn, repeats):
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        out.append(time.perf_counter_ns() - t0)
    return out


def run_timing_pivot(cfg):
    """Wall times of the pivoting schemes on a precomputed sketch.

    The LU and QR schemes pivot the given l x n row sketch directly; the
    singular-vector scheme first orthonormalizes a column sketch, projects,
    and decomposes before pivoting, so it pays an extra m*n*l product.
    Repeats run sequentially in-process.
    """
    rows = []
    orderings = []
    for n in cfg.sizes:
        for l in cfg.ranks:
            rng = np.random.default_rng(_run_seed(cfg.seed, n, l))
            A = rng.standard_normal((n, n))
            X = make_embedding("gaussian", l, n, seed=_run_seed(cfg.seed, n, l, 1)).apply(A)
            Y = A @ make_embedding("gaussian", l, n, seed=_run_seed(cfg.seed, n, l, 2)).to_dense().T
            Xt = np.ascontiguousarray(X.T)

            def deim_pipeline():
                Q = qr_ortho(Y)
                B = Q.T @ A
                f = svd_thin(B)
                lupp(f.V)

            timings = {
                "lupp": _time_ns(lambda: lupp(Xt), cfg.repeats),
                "cpqr": _time_ns(lambda: cpqr(X), cfg.repeats),
                "deim": _time_ns(deim_pipeline, cfg.repeats),
            }
            matrix_id = f"dense:{n}x{n}"
            medians = {}
            for scheme in sorted(timings):
                ts = timings[scheme]
                for rep, t in enumerate(ts):
                    rows.append(Row("timing_pivot", scheme, matrix_id, l, 0,
                                    rep, "time_ns", float(t), t))
                med = int(np.median(ts))
                medians[scheme] = med
                rows.append(Row("timing_pivot", scheme, matrix_id, l, 0, 0,
                                "median_time_ns", float(med), med))
            ok = medians["lupp"] < medians["cpqr"] < medians["deim"]
            orderings.append((n, l, ok))
            rows.append(Row("timing_pivot", "ordering", matrix_id, l, 0, 0,
                            "lupp_lt_cpqr_lt_deim", float(ok), 0))
    for n, l, ok in orderings:
        if not ok:
            print(f"timing_pivot: expected lupp < cpqr < deim ordering did not "
                  f"hold at n={n}, l={l}", file=sys.stderr)
    rows.sort(key=lambda r: (r.method, r.matrix, r.param_l, r.metric, r.trial))
    return rows


def run_timing_sketch(cfg):
    """Wall times of applying each embedding kind to a dense m x n matrix."""
    n = cfg.n_fixed
    rows = []
    for m in cfg.sizes:
        for l in cfg.ranks:
            rng = np.random.default_rng(_run_seed(cfg.seed, m, l))
            A = rng.standard_normal((m, n))
            ops = {
                "gaussian": make_embedding("gaussian", l, m, seed=_run_seed(cfg.seed, m, l, 1)),
                "srtt": make_embedding("srtt", l, m, seed=_run_seed(cfg.seed, m, l, 2)),
                "sparse-sign": make_embedding("sparse_sign", l, m,
                                              seed=_run_seed(cfg.seed, m, l, 3)),
            }
            matrix_id = f"dense:{m}x{n}"
            for name in sorted(ops):
                op = ops[name]
                ts = _time_ns(lambda: op.apply(A), cfg.repeats)
                for rep, t in enumerate(ts):
                    rows.append(Row("timing_sketch", name, matrix_id, l, 0,
                                    rep, "time_ns", float(t), t))
                med = int(np.median(ts))
                rows.append(Row("timing_sketch", name, matrix_id, l, 0, 0,
                                "median_time_ns", float(med), med))
    rows.sort(key=lambda r: (r.method, r.matrix, r.param_l, r.metric, r.trial))
    return rows


# --- canonical angles ---------------------------------------------------------

def _angle_rows(base, side, series, values, nanos=0):
    exp, matrix, l, q, trial = base
    return [Row(exp, series, matrix, l, q, trial, f"{side}_sin_{i + 1:03d}",
                float(v), nanos)
            for i, v in enumerate(np.asarray(values))]


def run_angles(cfg):
    """True angles against every bound/estimate family, per (l, q, trial).

    Every family is evaluated twice: from the true spectrum and from the
    run's approximated spectrum padded out to full length. The posterior
    residuals are measured once per cell and shared by both spectra and sides.
    """
    bundle = realize_matrix(cfg.matrix, seed=cfg.seed)
    U0, sigma, V0 = bundle.exact_factors(cfg.max_exact_dim)
    A = bundle.dense()
    r = sigma.size
    k = cfg.k
    rows = []
    for l in cfg.ranks:
        for q in cfg.qs:
            for trial in range(cfg.trials):
                seed = _run_seed(cfg.seed, l, q, trial)
                t0 = time.perf_counter_ns()
                lr = randomized_svd(A, l, q=q, seed=seed)
                nanos = time.perf_counter_ns() - t0
                base = ("angles", cfg.matrix, l, q, trial)
                sig_pad = pad_spectrum(lr.sigma_hat, r)
                true_left = canonical_angles(lr.U_hat, U0[:, :k])
                true_right = canonical_angles(lr.V_hat, V0[:, :k])
                rows += _angle_rows(base, "left", "true", true_left, nanos)
                rows += _angle_rows(base, "right", "true", true_right, nanos)

                # projected embedding for the reference bound: the same
                # operator the decomposition itself used, by seed identity
                G = make_embedding("gaussian", l, A.shape[1], seed=seed).to_dense()
                om1 = V0[:, :k].T @ G.T
                om2 = V0[:, k:r].T @ G.T
                res = posterior_residuals(A, lr, k)

                for tag, spec in (("sigma", sigma), ("padded", sig_pad)):
                    for side in ("left", "right"):
                        pb = prior_space_agnostic(PriorBoundInputs(
                            sigma=spec, k=k, l=l, q=q, side=side))
                        rows += _angle_rows(base, side, f"prior_upper_{tag}", pb.upper)
                        if pb.lower is not None:
                            rows += _angle_rows(base, side, f"prior_lower_{tag}", pb.lower)
                        est = unbiased_estimates(spec, k, l, q, cfg.estimate_trials,
                                                 seed=_run_seed(cfg.seed, l, q, trial, 1),
                                                 side=side)
                        rows += _angle_rows(base, side, f"estimate_mean_{tag}", est.mean)
                        rows += _angle_rows(base, side, f"estimate_min_{tag}", est.min)
                        rows += _angle_rows(base, side, f"estimate_max_{tag}", est.max)
                        rows += _angle_rows(base, side, f"posterior_residual_{tag}",
                                            res.simple(spec, side))
                        ref = prior_reference_bound(spec, k, l, q, om1, om2, side=side)
                        rows += _angle_rows(base, side, f"reference_{tag}", ref)
                    gap = res.gap(spec)
                    rows += _angle_rows(base, "left", f"posterior_gap_{tag}",
                                        np.minimum(gap.anglewise["Uk_Ul"], 1.0))
                    rows += _angle_rows(base, "right", f"posterior_gap_{tag}",
                                        np.minimum(gap.anglewise["Vk_Vl"], 1.0))
                    rows.append(Row("angles", f"posterior_gap_{tag}", cfg.matrix,
                                    l, q, trial, "gap_valid", float(gap.valid), 0))
    return rows


# --- oversampling / iteration balance -----------------------------------------

def run_balance(cfg):
    """phi over admissible q, plus measured angles per (l(q), q) configuration."""
    rows = []
    for gap in cfg.gaps:
        bal = BalanceConfig(k=cfg.k, alpha=cfg.alpha, beta=cfg.beta,
                            gamma=cfg.gamma, gap=gap)
        matrix_id = f"step:k={cfg.k},gap={gap},beta={cfg.beta:g}"
        qs = bal.admissible_q()
        for q in qs:
            rows.append(Row("balance", "phi", matrix_id, bal.sample_size(q), q,
                            0, "phi", balance_phi(bal, q), 0))
        for trial in range(cfg.trials):
            bundle = realize_matrix(matrix_id,
                                    seed=_run_seed(cfg.seed, int(gap * 1000), trial, 99))
            U0 = bundle.U
            A = bundle.A
            for q in qs:
                l = bal.sample_size(q)
                t0 = time.perf_counter_ns()
                lr = randomized_svd(A, l, q=q,
                                    seed=_run_seed(cfg.seed, int(gap * 1000), trial, q))
                nanos = time.perf_counter_ns() - t0
                sines = canonical_angles(lr.U_hat, U0[:, :cfg.k])
                for name, v in (("sin_mean", sines.mean()),
                                ("sin_min", sines.min()),
                                ("sin_max", sines.max())):
                    rows.append(Row("balance", "measured", matrix_id, l, q,
                                    trial, name, float(v), nanos))
    return rows
