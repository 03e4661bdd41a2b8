"""Experiment drivers behind the benchmark CLI.

Each driver returns a list of :class:`Row` records (one metric per row) in a
deterministic order; wall-clock nanoseconds ride along in a separate column
so reruns with the same seed produce byte-identical metric columns.
"""

from __future__ import annotations

import os
import sys
import threading
import time
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
from ..dense import _seed_sequence, blas_threads, qr_ortho, spectral_norm, svd_thin
from ..errors import BadShape, RandskelError, RankDeficient
from ..rangefinder import randomized_svd
from ..sketch import make_embedding
from ..skeleton import (
    _column_pivots,
    build_cur_stable,
    select_columns_cpqr,
    select_columns_lupp,
    select_deim,
    select_leverage,
)
from ..testmat import StepSpectrum, gen_gaussian_spectrum
from . import open_replacing
from .matrices import realize_matrix

CSV_COLUMNS = ("experiment", "method", "matrix", "param_l", "param_q",
               "trial", "metric", "value", "nanos")


@dataclass(frozen=True, slots=True)
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
    with open_replacing(path) as fh:
        _csv.writer(fh, lineterminator="\n").writerows([CSV_COLUMNS] + records)


def worker_count():
    """Workers of a :func:`_sweep`, the calling thread among them; capped by
    RANDSKEL_THREADS, which must be an integer when set (``ValueError`` otherwise)."""
    cap = os.environ.get("RANDSKEL_THREADS", "").strip()
    avail = os.cpu_count() or 1
    if not cap:
        return max(1, min(avail, 8))
    try:
        return max(1, min(avail, int(cap)))
    except ValueError:
        raise ValueError(f"RANDSKEL_THREADS must be an integer, got {cap!r}") from None


def _run_seed(base_seed, *indices):
    """The substream of one cell, from the base seed and the cell's integer
    indices only, never from a float parameter. A driver keys its streams
    with a fixed number of indices: ``SeedSequence`` reads a trailing 0 as
    absent, so keys of different lengths can collide."""
    return _seed_sequence([int(base_seed)] + [int(i) for i in indices])


def _sweep(cells, one):
    """The rows of ``one(*cell)`` for every cell of the list ``cells``, in cell
    order, from :func:`worker_count` workers: the calling thread and as many
    helper threads as remain. Call it inside ``blas_threads(1)``. Once a cell
    raises, no further cell is claimed, and the exception of the first failed
    cell in cell order is raised: the one a serial loop would raise."""
    results, errors = [None] * len(cells), {}
    claim, lock = iter(range(len(cells))), threading.Lock()

    def work():
        while not errors:
            with lock:
                i = next(claim, None)
            if i is None:
                return
            try:
                results[i] = one(*cells[i])
            except BaseException as exc:  # re-raised below, on the calling thread
                errors[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(worker_count() - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]
    return [row for chunk in results for row in chunk]


# --- skeletonization accuracy -------------------------------------------------

#: Each method's selector call, in the order whose index seeds its cells. The
#: selectors are looked up by name at call time, so a wrapper installed on this
#: module is the one called; the accuracy protocol treats the target rank and
#: the sample size of leverage sampling as equal.
_SELECTORS = {
    "rand-lupp": lambda A, l, seed: select_columns_lupp(A, l, 0, seed),
    "rand-lupp-1piter": lambda A, l, seed: select_columns_lupp(A, l, 1, seed),
    "rand-cpqr": lambda A, l, seed: select_columns_cpqr(A, l, 0, seed),
    "rand-cpqr-1piter": lambda A, l, seed: select_columns_cpqr(A, l, 1, seed),
    "rsvd-deim": lambda A, l, seed: select_deim(A, l, 0, seed),
    "rsvd-ls": lambda A, l, seed: select_leverage(A, l, l, seed),
}
METHODS = tuple(_SELECTORS)


@blas_threads(1)
def run_cur_accuracy(cfg):
    """Relative CUR errors versus the truncated-SVD baseline, per (method, l, trial)."""
    bundle = realize_matrix(cfg.matrix, seed=cfg.seed)
    A = bundle.dense()
    if max(cfg.ranks) > min(A.shape):
        raise BadShape(f"need l <= min(m, n), got l={max(cfg.ranks)} "
                       f"for {A.shape[0]}x{A.shape[1]}")
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
        q = 1 if method.endswith("1piter") else 0
        t0 = time.perf_counter_ns()
        try:
            sel = _SELECTORS[method](A, l, seed)
            cur = build_cur_stable(A, sel.I_s, sel.J_s)
        except RandskelError as exc:
            # data-dependent: sampled skeletons can be linearly dependent, and
            # sampling scores can run out, on spiky or low-rank inputs; record
            # the failure instead of aborting the sweep
            print(f"cur_accuracy: {method} l={l} trial={trial} failed "
                  f"[{type(exc).__name__}]: {exc}", file=sys.stderr)
            return [Row("cur_accuracy", method, cfg.matrix, l, q, trial,
                        "failed", 1.0, time.perf_counter_ns() - t0)]
        nanos = time.perf_counter_ns() - t0
        E = A - cur.reconstruct()
        err_fro = float(np.linalg.norm(E) / fro_A)
        err_spec = float(spectral_norm(E) / sigma[0])
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

    return rows + _sweep([(m, l, t) for m in cfg.methods for l in cfg.ranks
                          for t in range(cfg.trials)], one)


# --- timing -------------------------------------------------------------------

def dense_size(matrix_id):
    """The row count M of a timing run's matrix id ``dense:MxN``."""
    return int(matrix_id.partition(":")[2].split("x")[0])


def _timing_rows(experiment, scheme, matrix_id, l, fn, repeats):
    """The ``time_ns`` row of each of ``repeats`` calls of ``fn``, then their
    ``median_time_ns`` row."""
    rows = []
    for rep in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        t = time.perf_counter_ns() - t0
        rows.append(Row(experiment, scheme, matrix_id, l, 0, rep, "time_ns", float(t), t))
    med = int(np.median([r.nanos for r in rows]))
    return rows + [Row(experiment, scheme, matrix_id, l, 0, 0, "median_time_ns",
                       float(med), med)]


def run_timing_pivot(cfg):
    """Wall times of the pivoting schemes on a precomputed sketch.

    Each scheme runs the kernels its selector runs. The LU and QR schemes
    pivot the given l x n row sketch directly, forming no factors; the
    singular-vector scheme first orthonormalizes a column sketch, projects,
    and decomposes before pivoting, so it pays an extra m*n*l product.
    Repeats run sequentially in-process.
    """
    rows = []
    for n in cfg.sizes:
        for l in cfg.ranks:
            rng = np.random.default_rng(_run_seed(cfg.seed, n, l))
            A = rng.standard_normal((n, n))
            X = make_embedding("gaussian", l, n, seed=_run_seed(cfg.seed, n, l, 1)).apply(A)
            Y = A @ make_embedding("gaussian", l, n, seed=_run_seed(cfg.seed, n, l, 2)).to_dense().T

            def deim_pipeline():
                Q = qr_ortho(Y)
                B = Q.T @ A
                f = svd_thin(B)
                _column_pivots("lupp", f.V.T, l)

            matrix_id = f"dense:{n}x{n}"
            medians = {}
            for scheme, fn in (("lupp", lambda: _column_pivots("lupp", X, l)),
                               ("cpqr", lambda: _column_pivots("cpqr", X, l)),
                               ("deim", deim_pipeline)):
                rows += _timing_rows("timing_pivot", scheme, matrix_id, l, fn, cfg.repeats)
                medians[scheme] = rows[-1].nanos
            ok = medians["lupp"] < medians["cpqr"] < medians["deim"]
            rows.append(Row("timing_pivot", "ordering", matrix_id, l, 0, 0,
                            "lupp_lt_cpqr_lt_deim", float(ok), 0))
            if not ok:
                print(f"timing_pivot: expected lupp < cpqr < deim ordering did not "
                      f"hold at n={n}, l={l}", file=sys.stderr)
    rows.sort(key=lambda r: (r.method, dense_size(r.matrix), r.param_l, r.metric, r.trial))
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
            for name in sorted(ops):
                rows += _timing_rows("timing_sketch", name, f"dense:{m}x{n}", l,
                                     lambda: ops[name].apply(A), cfg.repeats)
    rows.sort(key=lambda r: (r.method, dense_size(r.matrix), r.param_l, r.metric, r.trial))
    return rows


# --- canonical angles ---------------------------------------------------------

def _angle_rows(base, side, series, values, nanos=0):
    exp, matrix, l, q, trial = base
    return [Row(exp, series, matrix, l, q, trial, f"{side}_sin_{i + 1:03d}",
                float(v), nanos)
            for i, v in enumerate(np.asarray(values))]


@blas_threads(1)
def run_angles(cfg):
    """True angles against every bound/estimate family, per (l, q, trial).

    Every family is evaluated twice: from the true spectrum and from the
    run's approximated spectrum padded out to full length. The posterior
    residuals are measured once per cell and shared by both spectra and sides.
    Every family needs k < l < r - k for the matrix's exact rank r; each l is
    checked before any cell.
    """
    bundle = realize_matrix(cfg.matrix, seed=cfg.seed)
    U0, sigma, V0 = bundle.exact_factors(cfg.max_exact_dim)
    A = bundle.dense()
    r = sigma.size
    k = cfg.k
    for l in cfg.ranks:
        if not k < l < r - k:
            raise BadShape(f"need k < l < r - k, got k={k}, l={l}, r={r}")
    U0k = U0[:, :k].copy()  # the rest of the bundle is not kept alive by a view
    del bundle, U0

    def one(l, q, trial):
        seed = _run_seed(cfg.seed, l, q, trial)
        t0 = time.perf_counter_ns()
        lr = randomized_svd(A, l, q=q, seed=seed)
        nanos = time.perf_counter_ns() - t0
        base = ("angles", cfg.matrix, l, q, trial)
        sig_pad = pad_spectrum(lr.sigma_hat, r)
        rows = _angle_rows(base, "left", "true", canonical_angles(lr.U_hat, U0k), nanos)
        rows += _angle_rows(base, "right", "true", canonical_angles(lr.V_hat, V0[:, :k]),
                            nanos)
        res = posterior_residuals(A, lr, k)
        del lr  # its factors are not needed past the residuals

        # projected embedding for the reference bound: the same
        # operator the decomposition itself used, by seed identity
        G = make_embedding("gaussian", l, A.shape[1], seed=seed).to_dense()
        om1 = V0[:, :k].T @ G.T
        om2 = V0[:, k:r].T @ G.T
        del G

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

    return _sweep([(l, q, t) for l in cfg.ranks for q in cfg.qs
                   for t in range(cfg.trials)], one)


# --- oversampling / iteration balance -----------------------------------------

@blas_threads(1)
def run_balance(cfg):
    """phi over admissible q, plus measured angles per (l(q), q) configuration.

    A cell is keyed by the gap's position ``g`` in ``cfg.gaps`` and its trial:
    its step matrix is drawn from stream ``(g, trial, 0)`` and its sketch
    at ``q`` from ``(g, trial, q + 1)``.

    Every gap's configuration is read, and the largest sample, l at q = 0,
    checked to fit the r x r step matrix, before any cell runs or any phi is
    computed, as the number of admissible q grows with the budget."""
    configs = [BalanceConfig(k=cfg.k, alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma, gap=gap)
               for gap in cfg.gaps]
    first = configs[0]
    if first.sample_size(0) > first.r:
        raise BadShape(f"need l <= r, got l={first.sample_size(0)} at q=0 "
                       f"for the {first.r}x{first.r} step matrix")

    def one(g, trial):
        bal, gap = configs[g], cfg.gaps[g]
        matrix_id = f"step:k={cfg.k},gap={gap},beta={cfg.beta:g}"
        qs = bal.admissible_q()
        rows = [] if trial else [
            Row("balance", "phi", matrix_id, bal.sample_size(q), q, 0, "phi",
                balance_phi(bal, q), 0) for q in qs]
        A, U, _, _ = gen_gaussian_spectrum(bal.r, bal.r, StepSpectrum(cfg.k, sigma1=gap),
                                           seed=_run_seed(cfg.seed, g, trial, 0), r=bal.r)
        for q in qs:
            l = bal.sample_size(q)
            t0 = time.perf_counter_ns()
            lr = randomized_svd(A, l, q=q, seed=_run_seed(cfg.seed, g, trial, q + 1))
            nanos = time.perf_counter_ns() - t0
            sines = canonical_angles(lr.U_hat, U[:, :cfg.k])
            for name, v in (("sin_mean", sines.mean()),
                            ("sin_min", sines.min()),
                            ("sin_max", sines.max())):
                rows.append(Row("balance", "measured", matrix_id, l, q,
                                trial, name, float(v), nanos))
        return rows

    return _sweep([(g, t) for g in range(len(cfg.gaps)) for t in range(cfg.trials)], one)
