"""One seed rule for every seeded public routine.

A seed is ``None`` (read as ``SeedSequence(0)``), a non-negative int, a
sequence of them, or a ``SeedSequence``, which is read and never spawned
from: the same seed gives the same bits on every call. Anything else raises
:class:`BadShape`.
"""

import numpy as np
import pytest

import randskel as rs
from randskel.dense import _child_seeds
from randskel.errors import BadShape

_RNG = np.random.default_rng(2024)
A = _RNG.standard_normal((40, 30))
SIGMA = 1.0 / np.arange(1, 41)
SNN = dict(m=30, n=25, r=6, s=rs.snn_weights(2, 2, 6), density=0.3)
LR = rs.randomized_svd(A, 12, seed=1)


def _arrays(*items):
    return [np.asarray(item) for item in items]


def _skeleton(sel):
    return _arrays(sel.J_s, sel.I_s, *([] if sel.X is None else [sel.X]),
                   *([] if sel.Y is None else [sel.Y]))


def _gap(seed):
    rep = rs.posterior_gap(A, LR, SIGMA, 4, estimate_spectral=True, estimate_iters=3,
                           estimate_seed=seed)
    return _arrays(rep.norm_E3132_spec, rep.norm_E32_spec, rep.norm_E33_spec)


#: Every seeded public routine, as a function of its seed that returns the
#: arrays its seed decides.
ROUTINES = {
    "make_gaussian": lambda seed: _arrays(rs.make_gaussian(5, 20, seed=seed).to_dense()),
    "make_srtt": lambda seed: _arrays(rs.make_srtt(5, 20, seed=seed).to_dense()),
    "make_sparse_sign": lambda seed: _arrays(rs.make_sparse_sign(5, 20, seed=seed).to_dense()),
    "make_embedding": lambda seed: _arrays(rs.make_embedding("srtt", 5, 20, seed=seed).to_dense()),
    "spectral_norm_estimate": lambda seed: _arrays(rs.spectral_norm_estimate(
        lambda v: A @ v, lambda w: A.T @ w, 30, 2, seed=seed)),
    "gen_snn": lambda seed: _arrays(rs.gen_snn(rs.SnnParams(**SNN, seed=seed))),
    "gen_snn_operator": lambda seed: _arrays(
        rs.gen_snn_operator(rs.SnnParams(**SNN, seed=seed)).to_dense()),
    "gen_gaussian_spectrum": lambda seed: _arrays(
        *rs.gen_gaussian_spectrum(12, 10, rs.SlowDecay(r1=3), seed=seed)),
    "randomized_svd": lambda seed: _arrays(*(lambda lr: (lr.U_hat, lr.sigma_hat, lr.V_hat))(
        rs.randomized_svd(A, 8, q=1, seed=seed))),
    "select_columns_lupp": lambda seed: _skeleton(rs.select_columns_lupp(A, 6, seed=seed)),
    "select_columns_cpqr": lambda seed: _skeleton(rs.select_columns_cpqr(A, 6, seed=seed)),
    "select_deim": lambda seed: _skeleton(rs.select_deim(A, 6, seed=seed)),
    "select_leverage": lambda seed: _skeleton(rs.select_leverage(A, 4, 8, seed=seed)),
    "select_streaming": lambda seed: _skeleton(rs.select_streaming(
        [A[:, :7], A[:, 7:]], 6, seed=seed, m=40, n=30)),
    "unbiased_estimates": lambda seed: _arrays(*(lambda e: (e.mean, e.min, e.max))(
        rs.unbiased_estimates(SIGMA, 3, 6, 0, 4, seed=seed))),
    "posterior_gap": _gap,
}


def _same_bits(a, b):
    return len(a) == len(b) and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                                    for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(ROUTINES))
def test_same_seed_same_bits(name):
    call = ROUTINES[name]
    shared = np.random.SeedSequence(5)
    for seed in (None, 5, shared):
        assert _same_bits(call(seed), call(seed)), f"{name} seed={seed!r}"
    assert shared.n_children_spawned == 0
    # None is SeedSequence(0), and an int is the SeedSequence of that entropy
    assert _same_bits(call(None), call(np.random.SeedSequence(0)))
    assert _same_bits(call(5), call(shared))
    assert not _same_bits(call(5), call(6))


@pytest.mark.parametrize("bad", [-1, 1.5, "abc"])
@pytest.mark.parametrize("name", sorted(ROUTINES))
def test_bad_seed_is_bad_shape(name, bad):
    with pytest.raises(BadShape, match="seed"):
        ROUTINES[name](bad)


def test_child_seeds_are_those_of_a_fresh_spawn():
    parent = np.random.SeedSequence([3, 1], spawn_key=(2,))
    parent.spawn(4)  # a caller's earlier spawns do not shift the children
    fresh = np.random.SeedSequence([3, 1], spawn_key=(2,)).spawn(3)
    got = _child_seeds(parent, 3)
    assert [c.spawn_key for c in got] == [c.spawn_key for c in fresh]
    assert all(np.array_equal(a.generate_state(4), b.generate_state(4))
               for a, b in zip(got, fresh))
    assert parent.n_children_spawned == 4
