"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Runtime target for the whole module: comfortably inside a laptop budget.
Criteria 4 and 5 share one sweep over the 300x300 sparse non-negative
instance; criteria 6 and 7 share the pool of synthetic 500x500 profiles.
"""

import collections
import time

import numpy as np
import pytest

from randskel import (
    BalanceConfig,
    PriorBoundInputs,
    balance_phi,
    build_cur_stable,
    canonical_angles,
    cpqr,
    gen_snn,
    lupp,
    make_embedding,
    make_gaussian,
    posterior_eta,
    posterior_gap,
    posterior_simple,
    prior_space_agnostic,
    qr_ortho,
    randomized_svd,
    rangefinder_error,
    select_columns_cpqr,
    select_columns_lupp,
    select_deim,
    select_leverage,
    snn_weights,
    svd_thin,
    unbiased_estimates,
    SnnParams,
)
from randskel.errors import SingularSkeleton
from randskel.bench.experiments import _sweep
from randskel.bench.matrices import realize_matrix
from oracles import (
    column_skeleton_residual,
    cur_residual,
    random_matrix,
    row_skeleton_residual,
    truncated_svd_error,
)

SLACK = 1e-10

#: the paper-profile SNN instance all skeleton criteria run on; density is a
#: free parameter and is pinned where skeleton selection is non-degenerate
ACC_SNN = dict(m=300, n=300, r=300, density=0.008)

PROFILES = {
    "gauss-slow": "gauss:500x500,profile=slow,r=450",
    "gauss-fast": "gauss:500x500,profile=fast,r=450",
    "snn-a1": "snn:500x500,r=500,a=1,r1=20,density=0.008",
    "snn-a100": "snn:500x500,r=500,a=100,r1=20,density=0.008",
}


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


_matrix_cache = {}


def cached_matrix(spec, seed):
    """The realized bundle, its exact factors computed once and stored on it."""
    key = (spec, seed)
    if key not in _matrix_cache:
        bundle = realize_matrix(spec, seed=seed)
        bundle.U, bundle.sigma, bundle.V = bundle.exact_factors()
        _matrix_cache[key] = bundle
    return _matrix_cache[key]


def test_01_eta_bound_deterministic():
    """Skeleton error <= eta * range error, both norms, 100/100 pairs."""
    cases = []
    for seed in range(40):
        cases.append(("dense", 50, 40, 10, seed))
    for seed in range(40):
        cases.append(("dense", 150, 120, 15, seed))
    for seed in range(20):
        cases.append(("snn", 300, 300, 30, seed))
    ok_count = 0
    for kind, m, n, l, seed in cases:
        if kind == "dense":
            A = np.random.default_rng(seed).standard_normal((m, n))
        else:
            A = gen_snn(SnnParams(m=m, n=n, r=300, s=snn_weights(2, 100, 300),
                                  density=ACC_SNN["density"], seed=seed))
        X = make_gaussian(l, m, seed=seed + 1).apply(A)
        J = lupp(X.T).perm[:l]
        eta = posterior_eta(X, J)
        skel_f, skel_2 = column_skeleton_residual(A, J)
        rng_f, rng_2 = rangefinder_error(A, X)
        ok_count += int(skel_f <= eta * rng_f * (1 + SLACK)
                        and skel_2 <= eta * rng_2 * (1 + SLACK))
    report(1, "eta bound", ok_count == len(cases), f"{ok_count}/{len(cases)}")


def test_02_cur_sandwich():
    """Column-ID error <= CUR error <= root-sum-square, both norms, 100/100."""
    ok_count = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((40, 30))
        sel = select_columns_lupp(A, 6, 0, seed=seed)
        good = True
        for idx in (0, 1):
            col = column_skeleton_residual(A, sel.J_s)[idx]
            row = row_skeleton_residual(A, sel.I_s)[idx]
            both = cur_residual(A, sel.I_s, sel.J_s)[idx]
            good &= col <= both * (1 + SLACK)
            good &= both <= np.sqrt(col ** 2 + row ** 2) * (1 + SLACK)
        ok_count += int(good)
    report(2, "cur sandwich", ok_count == 100, f"{ok_count}/100")


def test_03_rangefinder_expectation():
    """Mean squared range error <= 13/3 of the optimal, 10% MC slack."""
    k, l = 10, 14
    bundle = cached_matrix("gauss:100x80,profile=fast,r=80", 21)
    A = bundle.A
    opt_sq = truncated_svd_error(bundle.sigma, k) ** 2
    acc = 0.0
    n_seeds = 500
    for seed in range(n_seeds):
        X = make_gaussian(l, 100, seed=seed).apply(A)
        fe, _ = rangefinder_error(A, X)
        acc += fe ** 2
    mean = acc / n_seeds
    bound = (l - 1) / (l - k - 1) * opt_sq
    report(3, "rangefinder expectation", mean <= 1.10 * bound,
           f"mean {mean:.3f} vs bound {bound:.3f}")


@pytest.fixture(scope="module")
def snn_sweep():
    """Median CUR errors per (method, l) on the acceptance SNN instance."""
    A = gen_snn(SnnParams(m=300, n=300, r=300, s=snn_weights(2, 100, 300),
                          density=ACC_SNN["density"], seed=42))
    sigma = svd_thin(A).sigma
    fro = np.linalg.norm(A)
    ls = (20, 40, 60, 80, 100)
    selectors = {
        "rand-lupp": lambda l, s: select_columns_lupp(A, l, 0, s),
        "rand-lupp-1piter": lambda l, s: select_columns_lupp(A, l, 1, s),
        "rand-cpqr": lambda l, s: select_columns_cpqr(A, l, 0, s),
        "rsvd-deim": lambda l, s: select_deim(A, l, 0, s),
        "rsvd-ls": lambda l, s: select_leverage(A, l, l, s),
    }
    medians = {}
    for name, fn in selectors.items():
        for l in ls:
            errs = []
            for seed in range(20):
                try:
                    sel = fn(l, seed)
                    cur = build_cur_stable(A, sel.I_s, sel.J_s)
                    errs.append(np.linalg.norm(A - cur.reconstruct()) / fro)
                except SingularSkeleton:
                    errs.append(np.inf)  # a failed skeleton is unboundedly bad
            medians[name, l] = float(np.median(errs))
    baselines = {l: truncated_svd_error(sigma, l) / fro for l in ls}
    return ls, medians, baselines


def test_04_skeleton_accuracy_vs_optimal(snn_sweep):
    """Pivoting methods within 1.5x of optimal; sampling method not better."""
    ls, medians, baselines = snn_sweep
    pivots = ("rand-lupp", "rand-cpqr", "rsvd-deim")
    within = all(medians[m, l] <= 1.5 * baselines[l] for m in pivots for l in ls)
    ordered = all(medians["rsvd-ls", l] >= medians[m, l] for m in pivots for l in ls)
    worst = max(medians[m, l] / baselines[l] for m in pivots for l in ls)
    report(4, "skeleton accuracy", within and ordered,
           f"worst pivot ratio {worst:.2f}, sampling ordering {'ok' if ordered else 'violated'}")


def test_05_power_iteration_improves(snn_sweep):
    """One plain power iteration lowers the median error at every rank."""
    ls, medians, _ = snn_sweep
    ok = all(medians["rand-lupp-1piter", l] <= medians["rand-lupp", l] for l in ls)
    detail = ", ".join(
        f"l={l}: {medians['rand-lupp-1piter', l]:.4f}<={medians['rand-lupp', l]:.4f}"
        for l in ls)
    report(5, "power iteration improves", ok, detail)


def _angles_for(bundle, k, l, q, seed):
    lr = randomized_svd(bundle.A, l, q=q, seed=seed)
    U0, sigma, V0 = bundle.exact_factors()
    return (canonical_angles(lr.U_hat, U0[:, :k]),
            canonical_angles(lr.V_hat, V0[:, :k]), sigma)


def _on_two_workers(monkeypatch, cells, one):
    """The rows of ``one(*cell)`` for every cell, in cell order, from the two
    workers of the drivers' cell sweep; BLAS runs at one thread in this suite."""
    monkeypatch.setenv("RANDSKEL_THREADS", "2")
    return _sweep(cells, one)


def test_06_prior_upper_coverage(monkeypatch):
    """Spectrum-only upper bounds cover >= 95% of (i, seed) pairs per cell."""
    k = 50
    configs = [(name, l, q) for name in PROFILES for l in (80, 200) for q in (0, 1)]

    def one(name, seed):
        bundle = cached_matrix(PROFILES[name], seed)
        hits = []
        for _, l, q in (c for c in configs if c[0] == name):
            left, right, sigma = _angles_for(bundle, k, l, q, 1000 + seed)
            for side, truth in (("left", left), ("right", right)):
                ub = prior_space_agnostic(PriorBoundInputs(
                    sigma=sigma, k=k, l=l, q=q, side=side)).upper
                hits.append(((name, l, q, side), int((ub >= truth - 1e-12).sum())))
        return hits

    hits = collections.Counter()
    for cell, count in _on_two_workers(monkeypatch, [(name, seed) for name in PROFILES
                                                     for seed in range(20)], one):
        hits[cell] += count
    total = 20 * k
    worst = 1.0
    worst_cell = ""
    ok = True
    for name, l, q in configs:
        for side in ("left", "right"):
            frac = hits[name, l, q, side] / total
            if frac < worst:
                worst, worst_cell = frac, f"{name} l={l} q={q} {side}"
            ok &= frac >= 0.95
    report(6, "prior upper coverage", ok, f"worst cell {worst_cell}: {worst:.3f}")


def test_07_prior_lower_coverage(monkeypatch):
    """Lower bounds with doubled distortions at l = 4k (q=0, left side).

    With k=50, l=200 on matrices of rank <= 500 the doubled tail distortion
    reaches 1 and the formula is undefined, so the criterion runs at k=20,
    l=80 where it is well-posed; q=1 and the right side violate the
    tail-flatness assumption the bound rests on and are excluded.
    """
    k, l, q = 20, 80, 0

    def one(name, seed):
        left, _, sigma = _angles_for(cached_matrix(PROFILES[name], seed), k, l, q, 2000 + seed)
        lb = prior_space_agnostic(PriorBoundInputs(
            sigma=sigma, k=k, l=l, q=q, side="left")).lower
        assert lb is not None
        return [(name, int((lb <= left + 1e-12).sum()))]

    hits = collections.Counter()
    for name, count in _on_two_workers(monkeypatch, [(name, seed) for name in PROFILES
                                                     for seed in range(20)], one):
        hits[name] += count
    total = 20 * k
    worst = 1.0
    ok = True
    for name in PROFILES:
        frac = hits[name] / total
        worst = min(worst, frac)
        ok &= frac >= 0.95
    report(7, "prior lower coverage", ok, f"worst profile fraction {worst:.3f}")


def test_08_unbiased_estimates_match_ground_truth():
    """N=3 estimate means within 0.05 of the 200-run Monte-Carlo truth."""
    k, l = 50, 80
    bundle = cached_matrix("gauss:200x200,profile=slow,r=180", 7)
    worst = 0.0
    ok = True
    for q in (0, 1):
        mc = {"left": np.zeros(k), "right": np.zeros(k)}
        runs = 200
        for seed in range(runs):
            left, right, sigma = _angles_for(bundle, k, l, q, 5000 + seed)
            mc["left"] += left
            mc["right"] += right
        for side in ("left", "right"):
            mc[side] /= runs
            est = unbiased_estimates(bundle.sigma, k, l, q, 3, seed=11, side=side)
            dev = np.abs(est.mean - mc[side]).max()
            worst = max(worst, dev)
            ok &= dev <= 0.05
    report(8, "unbiased estimates", ok, f"max |est - truth| {worst:.4f}")


def test_09_posterior_bounds_valid(monkeypatch):
    """Residual bounds dominate true sines; gap flag true in >= 80% of runs."""
    k, l = 50, 200
    bundle = cached_matrix("gauss:500x500,profile=fast,r=450", 3)
    A = bundle.A
    U0, sigma, V0 = bundle.exact_factors()

    def one(seed, q):
        lr = randomized_svd(A, l, q=q, seed=7000 + 2 * seed + q)
        tl = canonical_angles(lr.U_hat, U0[:, :k])
        tr = canonical_angles(lr.V_hat, V0[:, :k])
        bl = posterior_simple(A, lr.U_hat, sigma, k, side="left")
        br = posterior_simple(A, lr.V_hat, sigma, k, side="right")
        dom_simple = int((bl >= tl - 1e-12).all() and (br >= tr - 1e-12).all())
        rep = posterior_gap(A, lr, sigma, k)
        dom_gap = 0
        if rep.valid:
            gl = np.minimum(rep.anglewise["Uk_Ul"], 1.0)
            gr = np.minimum(rep.anglewise["Vk_Vl"], 1.0)
            dom_gap = int((gl >= tl - 1e-12).all() and (gr >= tr - 1e-12).all())
        return [(dom_simple, dom_gap, int(rep.valid))]

    cells = _on_two_workers(monkeypatch, [(seed, q) for seed in range(50) for q in (0, 1)], one)
    runs = len(cells)
    dom_simple, dom_gap, valid_ct = (sum(column) for column in zip(*cells))
    ok = (dom_simple == runs and dom_gap == valid_ct and valid_ct >= 0.8 * runs)
    report(9, "posterior bounds", ok,
           f"residual {dom_simple}/{runs}, gap {dom_gap}/{valid_ct} valid, "
           f"flag rate {valid_ct / runs:.2f}")


def test_10_balance_study():
    """phi and the measured angles pick the same extreme q for both gaps."""
    k, alpha, beta, gamma = 10, 16.0, 32.0, 1.05
    ok = True
    details = []
    for gap, want_extreme in ((1.01, "min"), (1.5, "max")):
        bal = BalanceConfig(k=k, alpha=alpha, beta=beta, gamma=gamma, gap=gap)
        qs = bal.admissible_q()
        phis = [balance_phi(bal, q) for q in qs]
        phi_arg = qs[int(np.argmin(phis))]
        ok &= phi_arg == (0 if want_extreme == "min" else max(qs))
        agree = 0
        for trial in range(5):
            bundle = realize_matrix(f"step:k={k},gap={gap},beta={beta:g}",
                                    seed=900 + trial)
            means = []
            for q in qs:
                l = bal.sample_size(q)
                lr = randomized_svd(bundle.A, l, q=q, seed=300 + trial * 10 + q)
                means.append(canonical_angles(lr.U_hat, bundle.U[:, :k]).mean())
            agree += int(qs[int(np.argmin(means))] == phi_arg)
        ok &= agree >= 4
        details.append(f"gap {gap}: phi* q={phi_arg}, agree {agree}/5")
    report(10, "balance study", ok, "; ".join(details))


def test_11_timing_ordering():
    """Pivot timing order lupp < cpqr < deim pipeline at n=2000, l=400."""
    n, l, repeats = 2000, 400, 5
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    X = make_gaussian(l, n, seed=1).apply(A)
    Y = A @ make_gaussian(l, n, seed=2).to_dense().T
    Xt = np.ascontiguousarray(X.T)

    def timed(fn):
        out = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            fn()
            out.append(time.perf_counter_ns() - t0)
        return float(np.median(out))

    def deim_pipeline():
        Q = qr_ortho(Y)
        f = svd_thin(Q.T @ A)
        lupp(f.V)

    t_lupp = timed(lambda: lupp(Xt))
    t_cpqr = timed(lambda: cpqr(X))
    t_deim = timed(deim_pipeline)
    ok = t_lupp < t_cpqr < t_deim
    report(11, "timing ordering", ok,
           f"lupp {t_lupp / 1e6:.1f}ms < cpqr {t_cpqr / 1e6:.1f}ms "
           f"< deim {t_deim / 1e6:.1f}ms")


def test_12_oracle_equivalence():
    """Factorizations and sketch applications match brute-force oracles,
    200 seeded cases with dimensions <= 64."""
    ok_count = 0
    n_cases = 200
    for case in range(n_cases):
        rng = np.random.default_rng(case)
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((m, n))
        scale = np.linalg.norm(A)
        good = True

        f = svd_thin(A)
        good &= np.linalg.norm((f.U * f.sigma) @ f.V.T - A) < 1e-9 * scale
        ref = np.sqrt(np.clip(np.linalg.eigvalsh(A.T @ A)[::-1], 0, None))
        good &= np.allclose(f.sigma, ref[: min(m, n)], rtol=1e-9, atol=1e-9 * scale)

        qf = cpqr(A)
        good &= np.linalg.norm(A[:, qf.perm] - qf.Q @ qf.R) < 1e-10 * scale
        d = np.abs(np.diag(qf.R))
        good &= (np.diff(d) <= 0).all()

        if m >= n:
            lf = lupp(A)
            good &= np.linalg.norm(A[lf.perm] - lf.L @ lf.U) < 1e-10 * scale
            good &= np.abs(np.tril(lf.L, -1)).max() <= 1.0

        tall = A if m >= n else A.T
        Q = qr_ortho(tall)
        U = np.linalg.svd(tall, full_matrices=False)[0]
        good &= np.linalg.norm(Q @ Q.T - U @ U.T, 2) < 1e-10

        l = int(rng.integers(2, min(m, 8) + 1))
        for kind in ("gaussian", "srtt", "sparse_sign"):
            op = make_embedding(kind, l, m, seed=case)
            got = op.apply(A)
            want = op.to_dense() @ A
            good &= np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

        ok_count += int(good)
    report(12, "oracle equivalence", ok_count == n_cases, f"{ok_count}/{n_cases}")
