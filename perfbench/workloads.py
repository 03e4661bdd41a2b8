"""The benchmark's workloads: inputs, the timed calls and the output checks.

Each workload has ``setup(seed)`` (inputs the benchmark makes itself),
``run(state, out_dir)`` (the timed call or calls), ``digest(output)`` (a
hash of every metric-bearing output, which must not change between
iterations, traced or not, pooled or serial) and ``check(state, output)``
(correctness checks, run outside the timed region).

A check returns ``(attempted, failed, quality)``: cells attempted, cells
failed, and the accuracy figures of :func:`_quality` (``None`` when the
output is unusable as a whole, in which case every cell failed).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import statistics
from collections import defaultdict

import numpy as np

import randskel
from randskel.bench import cli
from randskel.bench.experiments import METHODS
from randskel.bench.matrices import realize_matrix
from randskel.errors import RandskelError

TOL = 1e-12


def _seq(*ints):
    return np.random.SeedSequence([int(i) for i in ints])


def _tails(sigma):
    """tails[l] = sqrt(sum_{i > l} sigma_i^2), the Eckart-Young optimum at rank l."""
    return np.concatenate([np.sqrt(np.cumsum((sigma ** 2)[::-1])[::-1]), [0.0]])


def _quality(rel_errs, opt_ratios, slack):
    """Accuracy figures of one output.

    ``err_over_opt`` and ``bound_slack`` are geometric means over cells: the
    cells of one workload mix inputs whose ratios sit in separate clusters,
    and a median of few such cells jumps between them from seed to seed.
    ``rel_err`` is the median of the plain relative errors; it follows the
    random test matrix's own tail, so it is reported but not bounded.
    """
    def gmean(values):
        return math.exp(statistics.mean(math.log(v) for v in values)) if values else 0.0

    return {"err_over_opt": gmean(opt_ratios), "bound_slack": gmean(slack),
            "rel_err": statistics.median(rel_errs) if rel_errs else 0.0}


def eta_slack(A, sel):
    """(ok, bound / column-skeleton error) for the bound err <= eta * range error.

    Both errors are Frobenius norms of projection residuals, computed with
    numpy's own QR (no code shared with the library) as
    ``||A - P A||^2 = ||A||^2 - ||P A||^2``. The cancellation costs about
    1e-16 * ||A||^2 / err^2 in relative accuracy, below 1e-13 on every
    workload here, whose relative errors are at least 1e-2.
    """
    fro_sq = np.linalg.norm(A) ** 2
    Qc = np.linalg.qr(A[:, sel.J_s])[0]
    col_err = np.sqrt(max(fro_sq - np.linalg.norm(Qc.T @ A) ** 2, 0.0))
    Qx = np.linalg.qr(sel.X.T)[0]
    range_err = np.sqrt(max(fro_sq - np.linalg.norm(A @ Qx) ** 2, 0.0))
    bound = sel.eta_column * range_err
    ok = col_err <= bound * (1 + TOL)
    return ok, (bound / col_err if col_err > 0 else None)


# --- CLI workloads --------------------------------------------------------------

def _cli_run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        return cli.run(argv)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _metric_digest(path):
    """sha256 of the CSV with its wall-clock ``nanos`` column dropped."""
    h = hashlib.sha256()
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            h.update(",".join(row[:-1]).encode() + b"\n")
    return h.hexdigest()


class CliWorkload:
    """One ``randskel-bench`` subcommand at its defaults, run in-process."""

    subcommand = ""
    csv_name = ""

    def setup(self, seed):
        return {"seed": seed}

    def run(self, state, out_dir):
        rc = _cli_run([self.subcommand, "--seed", str(state["seed"]), "--out", out_dir])
        return rc, os.path.join(out_dir, self.csv_name)

    def digest(self, output):
        rc, path = output
        return _metric_digest(path) if rc == 0 and os.path.exists(path) else f"exit {rc}"


class Cur(CliWorkload):
    """cur-accuracy: dense SNN 300x300, ranks 20:100:20, 6 methods, 5 trials."""

    subcommand = "cur-accuracy"
    csv_name = "cur_accuracy.csv"
    cells = 150
    rows = 435

    def check(self, state, output):
        rc, path = output
        rows = _read_csv(path) if rc == 0 else []
        cells = defaultdict(dict)
        for r in rows:
            if r["method"] != "baseline":
                cells[(r["method"], r["param_l"], r["trial"])][r["metric"]] = float(r["value"])
        if (len(rows) != self.rows or len(cells) != self.cells
                or not all(math.isfinite(float(r["value"])) for r in rows)):
            return self.cells, self.cells, None
        opt = {r["param_l"]: float(r["value"]) for r in rows if r["metric"] == "opt_fro"}
        failed = {key for key, m in cells.items()
                  if "failed" in m or m["err_fro"] < opt[key[1]] * (1 - TOL)}

        # the eta bound on the same matrix, methods, ranks and trial seeds
        A = realize_matrix(rows[0]["matrix"], seed=state["seed"]).dense()
        select = {
            "rand-lupp": lambda l, s: randskel.select_columns_lupp(A, l, 0, s),
            "rand-lupp-1piter": lambda l, s: randskel.select_columns_lupp(A, l, 1, s),
            "rand-cpqr": lambda l, s: randskel.select_columns_cpqr(A, l, 0, s),
            "rand-cpqr-1piter": lambda l, s: randskel.select_columns_cpqr(A, l, 1, s),
            "rsvd-deim": lambda l, s: randskel.select_deim(A, l, 0, s),
        }
        slack = []
        for method, l, trial in sorted(cells):
            if method in select:
                seed = _seq(state["seed"], METHODS.index(method), l, trial)
                ok, ratio = eta_slack(A, select[method](int(l), seed))
                if not ok:
                    failed.add((method, l, trial))
                if ratio is not None:
                    slack.append(ratio)
        errs = [(m["err_fro"], opt[key[1]]) for key, m in cells.items() if "err_fro" in m]
        return self.cells, len(failed), _quality([e for e, _ in errs],
                                                 [e / o for e, o in errs if o > 0], slack)


ANGLE_BOUNDS = ("posterior_residual_sigma", "posterior_residual_padded")
GAP_BOUNDS = ("posterior_gap_sigma", "posterior_gap_padded")


class Angles(CliWorkload):
    """angles: gauss 500x500 slow spectrum, k=50, l in {80, 200}, q in {0, 1}."""

    subcommand = "angles"
    csv_name = "angles.csv"
    cells = 4

    def check(self, state, output):
        rc, path = output
        rows = _read_csv(path) if rc == 0 else []
        cell_keys = sorted({(r["param_l"], r["param_q"], r["trial"]) for r in rows})
        if len(cell_keys) != self.cells:
            return self.cells, self.cells, None
        gap_valid = {(r["method"], r["param_l"], r["param_q"], r["trial"]): float(r["value"])
                     for r in rows if r["metric"] == "gap_valid"}
        true, bounds, failed = {}, [], set()
        for r in rows:
            if "_sin_" not in r["metric"]:
                continue
            key = (r["param_l"], r["param_q"], r["trial"])
            v = float(r["value"])
            if not 0.0 <= v <= 1.0:
                failed.add(key)
            if r["method"] == "true":
                true[key + (r["metric"],)] = v
            elif r["method"] in ANGLE_BOUNDS or (
                    r["method"] in GAP_BOUNDS and gap_valid[(r["method"],) + key] == 1.0):
                bounds.append((key + (r["metric"],), v))
        slack = []
        for full_key, b in bounds:
            t = true[full_key]
            if b < t - TOL:
                failed.add(full_key[:3])
            if t > 0:
                slack.append(b / t)

        # accuracy of the randomized SVD behind each cell, against Eckart-Young
        bundle = realize_matrix(rows[0]["matrix"], seed=state["seed"])
        A = bundle.dense()
        fro = np.linalg.norm(A)
        tail = _tails(bundle.sigma)
        errs, ratios = [], []
        for l, q, trial in cell_keys:
            lr = randskel.randomized_svd(A, int(l), q=int(q),
                                         seed=_seq(state["seed"], l, q, trial))
            err = np.linalg.norm(A - lr.approx())
            if not tail[int(l)] * (1 - TOL) <= err <= fro * (1 + TOL):
                failed.add((l, q, trial))
            errs.append(err / fro)
            ratios.append(err / tail[int(l)])
        return self.cells, len(failed), _quality(errs, ratios, slack)


# --- direct library workload ------------------------------------------------------

KINDS = ("gaussian", "srtt", "sparse_sign")
#: Extra Gaussian-sketch selections per input, made outside timing for
#: ``bound_slack``: eta varies about 30% (log scale) from draw to draw, so
#: the six timed cells alone gave an IQR/median of 0.23 over ten seeds.
SLACK_DRAWS = 9
TALL_SHAPE = (50000, 256)
TALL_L = 64
SNN_SIZE, SNN_R, SNN_DENSITY, SNN_L = 3000, 1000, 0.002, 100


class SketchLarge:
    """Sketch-dominated pipelines on a tall dense matrix and a matvec-only operator."""

    cells = 2 * len(KINDS)

    def setup(self, seed):
        m, n = TALL_SHAPE
        rng = np.random.default_rng(_seq(seed, 0))
        tall = rng.standard_normal((m, n)) / np.arange(1, n + 1)
        params = randskel.SnnParams(m=SNN_SIZE, n=SNN_SIZE, r=SNN_R,
                                    s=randskel.snn_weights(2.0, 100, SNN_R),
                                    density=SNN_DENSITY, seed=_seq(seed, 1))
        op = randskel.gen_snn_operator(params)
        return {"seed": seed, "tall": tall, "op": op}

    def run(self, state, out_dir):
        # attribute lookups at call time, so the traced run sees its wrappers
        skel, rf = randskel.skeleton, randskel.rangefinder
        tall, op, seed = state["tall"], state["op"], state["seed"]
        out = {}
        for i, kind in enumerate(KINDS):
            try:
                sel = skel.select_columns_lupp(tall, TALL_L, 0, seed=_seq(seed, 2, i),
                                               embedding=kind)
                out[("tall", kind)] = (sel, skel.build_cur_stable(tall, sel.I_s, sel.J_s))
            except RandskelError as exc:
                out[("tall", kind)] = exc
            try:
                sel = skel.select_columns_lupp(op, SNN_L, 1, seed=_seq(seed, 3, i),
                                               embedding=kind)
                cur = skel.build_cur_stable(op, sel.I_s, sel.J_s)
                lr = rf.randomized_svd(op, SNN_L, q=1, seed=_seq(seed, 4, i),
                                       embedding_kind=kind)
                out[("snn", kind)] = (sel, cur, lr)
            except RandskelError as exc:
                out[("snn", kind)] = exc
        return out

    def digest(self, output):
        h = hashlib.sha256()
        for key in sorted(output):
            res = output[key]
            if isinstance(res, Exception):
                h.update(repr(res).encode())
                continue
            sel, cur = res[0], res[1]
            arrays = [sel.J_s, sel.I_s, sel.X, np.float64(sel.eta_column), cur.U_mid, cur.Q_C]
            if len(res) == 3:
                arrays += [res[2].U_hat, res[2].sigma_hat, res[2].V_hat]
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def _references(self, state):
        """Dense forms and Eckart-Young tails, computed once per run.

        Singular values come from small triangular factors: R of a QR of the
        tall matrix, and R_x diag(s) R_y^T for the SNN sum X diag(s) Y^T.
        """
        if "ref" not in state:
            tall, op = state["tall"], state["op"]
            r_x = np.linalg.qr(op.x_factors.toarray(), mode="r")
            r_y = np.linalg.qr(op.y_factors.toarray(), mode="r")
            sigma = {"tall": np.linalg.svd(np.linalg.qr(tall, mode="r"), compute_uv=False),
                     "snn": np.linalg.svd((r_x * op.params.s) @ r_y.T, compute_uv=False)}
            dense = {"tall": tall, "snn": op.to_dense()}
            state["ref"] = {k: (A, np.linalg.norm(A), _tails(sigma[k])) for k, A in dense.items()}
        return state["ref"]

    def check(self, state, output):
        ref = self._references(state)
        failed, errs, ratios, slack = set(), [], [], []
        for key, res in output.items():
            if isinstance(res, Exception):
                failed.add(key)
                continue
            A, fro, tail = ref[key[0]]
            opt = tail[TALL_L if key[0] == "tall" else SNN_L]
            sel, cur = res[0], res[1]
            ok = (np.allclose(cur.C, A[:, sel.J_s], rtol=0, atol=TOL * fro)
                  and np.allclose(cur.R, A[sel.I_s], rtol=0, atol=TOL * fro))
            approx = [cur.reconstruct()] + ([res[2].approx()] if len(res) == 3 else [])
            for j, Ahat in enumerate(approx):
                err = np.linalg.norm(A - Ahat)
                ok = ok and opt * (1 - TOL) <= err <= fro * (1 + TOL)
                ratios.append(err / opt)
                if j == 0:
                    errs.append(err / fro)
            bound_ok, ratio = eta_slack(A, sel)
            if not (ok and bound_ok):
                failed.add(key)
            if ratio is not None:
                slack.append(ratio)
        for ok, ratio in self._extra_slack(state, ref):
            if not ok:
                failed.add("extra draws")
            if ratio is not None:
                slack.append(ratio)
        return self.cells, len(failed), _quality(errs, ratios, slack)

    def _extra_slack(self, state, ref):
        """eta-bound check and slack of SLACK_DRAWS more selections per input."""
        for d in range(SLACK_DRAWS):
            for name, A, l, q in (("tall", state["tall"], TALL_L, 0),
                                  ("snn", state["op"], SNN_L, 1)):
                sel = randskel.select_columns_lupp(A, l, q, seed=_seq(state["seed"], 5, d))
                yield eta_slack(ref[name][0], sel)


WORKLOADS = {"cur": Cur(), "angles": Angles(), "sketch-large": SketchLarge()}
