"""The failure contract as a property: every public routine, on degenerate and
extreme-scale inputs, dense, matvec-only or a scipy ``LinearOperator``, returns
finite outputs or raises a
:class:`~randskel.errors.RandskelError`, with no warning and nothing written
to the process's stderr (LAPACK's ``DLASCL`` message there shows that a
kernel was handed a non-finite array)."""

import dataclasses
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.sparse.linalg import aslinearoperator

from randskel import (build_column_id, build_cur_stable, build_row_id, build_two_sided_id,
                      canonical_angles, make_embedding, posterior_eta, posterior_gap,
                      posterior_residuals, posterior_simple, power_iter_plain,
                      power_iter_stable, randomized_svd, rangefinder_error, select_columns_cpqr,
                      select_columns_lupp, select_deim, select_leverage, select_streaming)
from randskel.errors import RandskelError
from oracles import MatvecOnly

SHAPES = [(1, 5), (5, 1), (1, 1), (6, 4), (4, 6), (7, 7)]
KINDS = ["zero", "rank-1", "duplicate-column", "fortran", "tiny", "huge", "max-fill"]
EMBEDDINGS = ["gaussian", "srtt", "sparse_sign"]
#: The input forms, by name: the array itself and two operators over it.
FORMS = {"dense": lambda A: A, "matvec": MatvecOnly, "linear-operator": aslinearoperator}


def make_input(kind, m, n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n))
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "rank-1":
        return np.outer(rng.standard_normal(m), rng.standard_normal(n))
    if kind == "duplicate-column":
        return G[:, np.arange(n) // 2]
    if kind == "fortran":
        return np.asfortranarray(G)
    if kind == "max-fill":
        return np.full((m, n), 1e308)
    return G * (1e-300 if kind == "tiny" else 1e300)


def _finite(out):
    """Whether every number in ``out`` (arrays, floats, dataclasses and
    containers of them) is finite."""
    if isinstance(out, np.ndarray):
        return out.dtype.kind not in "fc" or bool(np.isfinite(out).all())
    if isinstance(out, float):
        return np.isfinite(out)
    if isinstance(out, (tuple, list)):
        return all(_finite(x) for x in out)
    if isinstance(out, dict):
        return all(_finite(x) for x in out.values())
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out)
                   if f.name not in _MAY_BE_INFINITE)
    return True


#: Gap-report fields that are infinite by design where a gap is zero or
#: squares beyond the float range (the report is then flagged invalid); they
#: are checked for NaN only.
_MAY_BE_INFINITE = {"gamma1", "gamma2", "big_gamma1", "big_gamma2", "bounds", "anglewise"}


def _no_nan(out):
    values = [getattr(out, name) for name in sorted(_MAY_BE_INFINITE - {"bounds", "anglewise"})]
    return not any(np.isnan(np.asarray(v, dtype=float)).any()
                   for v in (*values, *out.bounds.values(), *out.anglewise.values()))


def calls(A, l, form):
    """(name, thunk) of every public routine on ``A``, in the input ``form``, at
    sample size ``l``."""
    m, n = A.shape
    op = FORMS[form](A)
    k = min(m, n)
    J, I = np.arange(l), np.arange(l)
    for emb in EMBEDDINGS:
        for select in (select_columns_lupp, select_columns_cpqr):
            for q in (0, 1):
                yield f"{select.__name__}-{emb}-q{q}", lambda s=select, e=emb, q=q: s(
                    op, l, q, seed=1, embedding=e)
        yield f"select_deim-{emb}", lambda e=emb: select_deim(op, l, 1, seed=2, embedding=e)
        yield f"randomized_svd-{emb}", lambda e=emb: randomized_svd(op, l, q=1, seed=3,
                                                                    embedding_kind=e)
        for power_iter in (power_iter_plain, power_iter_stable):
            yield f"{power_iter.__name__}-{emb}", lambda p=power_iter, e=emb: p(
                op, make_embedding(e, l, n, seed=4), 1)
    yield "select_leverage", lambda: select_leverage(op, 1, l, seed=5)
    yield "build_cur_stable", lambda: build_cur_stable(op, I, J)
    if form != "dense":
        return
    for pivot in ("lupp", "cpqr"):
        yield f"select_streaming-{pivot}", lambda p=pivot: select_streaming(
            [A[:, :n // 2], A[:, n // 2:]], l, seed=8, pivot=p, m=m, n=n)
    yield "build_column_id", lambda: build_column_id(A, J)
    yield "build_row_id", lambda: build_row_id(A, I)
    yield "build_two_sided_id", lambda: build_two_sided_id(A, I, J)
    yield "posterior_eta", lambda: posterior_eta(A, J)
    yield "rangefinder_error", lambda: rangefinder_error(A, A[:l])
    yield "canonical_angles", lambda: canonical_angles(A, A[:, :l])
    basis = np.linalg.qr(np.arange(1.0, m * l + 1).reshape(m, l) ** 0.5)[0]
    yield "posterior_simple", lambda: posterior_simple(A, basis, np.ones(k), 1)
    if k >= 2:
        lr = randomized_svd(np.random.default_rng(6).standard_normal((m, n)), k, seed=7)
        yield "posterior_gap", lambda: posterior_gap(A, lr, np.ones(k), k - 1)
        yield "posterior_residuals", lambda: posterior_residuals(A, lr, k - 1)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(KINDS), shape=st.sampled_from(SHAPES), full=st.booleans(),
       form=st.sampled_from(sorted(FORMS)), seed=st.integers(0, 3))
@example(kind="huge", shape=(7, 7), full=True, form="dense", seed=0)   # rangefinder_error norm
@example(kind="huge", shape=(6, 4), full=False, form="dense", seed=0)  # plain power iterations
@example(kind="max-fill", shape=(7, 7), full=True, form="matvec", seed=0)
@example(kind="max-fill", shape=(7, 7), full=True, form="linear-operator", seed=0)
def test_returns_finite_or_raises_quietly(kind, shape, full, form, seed, capfd):
    A = make_input(kind, *shape, seed)
    l = min(shape) if full else 1
    capfd.readouterr()
    for name, call in calls(A, l, form):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call()
            except RandskelError:
                out = None
        assert out is None or _finite(out), name
        if out is not None and hasattr(out, "anglewise"):
            assert _no_nan(out), name
        assert capfd.readouterr().err == "", name
