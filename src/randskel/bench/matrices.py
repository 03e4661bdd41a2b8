"""Matrix-spec mini-language for the benchmark CLI.

Specs:
    snn:MxN,r=R,a=A,r1=R1[,density=D][,implicit=1]
    gauss:MxN,profile=slow|fast[,r=R][,r1=R1]
    step:k=K,gap=G,beta=B
    csv:PATH

``gauss`` and ``step`` matrices carry their exact SVD factors; ``snn`` and
``csv`` matrices get one computed on demand (bounded by a size cap, since
that is a dense decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dense import as_operator, svd_thin
from ..errors import BadShape, MatrixTooLarge
from ..testmat import (
    FastDecay,
    SlowDecay,
    SnnParams,
    StepSpectrum,
    gen_gaussian_spectrum,
    gen_snn,
    gen_snn_operator,
    load_csv,
    snn_weights,
)


@dataclass
class MatrixBundle:
    """A realized test matrix plus whatever ground truth it comes with."""

    spec: str
    A: object                      # ndarray or ImplicitSnnOperator
    U: np.ndarray | None = None
    sigma: np.ndarray | None = None
    V: np.ndarray | None = None

    @property
    def shape(self):
        return self.A.shape

    def dense(self):
        return as_operator(self.A).dense()

    def exact_factors(self, max_dim=1500):
        """(U, sigma, V) of the matrix, computing a dense SVD if needed."""
        if self.U is not None:
            return self.U, self.sigma, self.V
        m, n = self.shape
        if max(m, n) > max_dim:
            raise MatrixTooLarge(
                f"exact SVD of {m}x{n} exceeds the cap of {max_dim}; "
                f"raise --max-exact-dim to allow it"
            )
        f = svd_thin(self.dense())
        rank = f.rank
        return f.U[:, :rank], f.sigma[:rank], f.V[:, :rank]


def _parse_kv(parts, spec):
    kv = {}
    for part in parts:
        if "=" not in part:
            raise BadShape(f"bad matrix spec {spec!r}: expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        kv[key.strip()] = val.strip()
    return kv


def _parse_dims(token, spec):
    try:
        m_s, n_s = token.lower().split("x")
        return int(m_s), int(n_s)
    except ValueError:
        raise BadShape(f"bad matrix spec {spec!r}: expected MxN, got {token!r}") from None


def realize_matrix(spec, seed=0):
    """Build the matrix a spec string describes, seeded deterministically."""
    if ":" not in spec:
        raise BadShape(f"bad matrix spec {spec!r}: missing kind prefix")
    kind, rest = spec.split(":", 1)
    kind = kind.strip().lower()

    if kind == "csv":
        return MatrixBundle(spec=spec, A=load_csv(rest))

    parts = [p for p in rest.split(",") if p]
    if kind == "snn":
        dims = _parse_dims(parts[0], spec)
        kv = _parse_kv(parts[1:], spec)
        m, n = dims
        r = int(kv.get("r", min(m, n)))
        a = float(kv.get("a", 2.0))
        r1 = int(kv.get("r1", min(100, r)))
        density = float(kv.get("density", SnnParams.density))
        params = SnnParams(m=m, n=n, r=r, s=snn_weights(a, r1, r),
                           density=density, seed=seed)
        if kv.get("implicit", "0") in ("1", "true", "yes"):
            return MatrixBundle(spec=spec, A=gen_snn_operator(params))
        return MatrixBundle(spec=spec, A=gen_snn(params))

    if kind == "gauss":
        dims = _parse_dims(parts[0], spec)
        kv = _parse_kv(parts[1:], spec)
        m, n = dims
        r = int(kv.get("r", min(m, n)))
        r1 = int(kv.get("r1", 20))
        name = kv.get("profile", "slow")
        if name == "slow":
            profile = SlowDecay(r1=r1)
        elif name == "fast":
            profile = FastDecay(r1=r1)
        else:
            raise BadShape(f"bad matrix spec {spec!r}: profile must be slow or fast")
        A, U, sigma, V = gen_gaussian_spectrum(m, n, profile, seed=seed, r=r)
        return MatrixBundle(spec=spec, A=A, U=U, sigma=sigma, V=V)

    if kind == "step":
        kv = _parse_kv(parts, spec)
        k = int(kv["k"])
        gap = float(kv["gap"])
        beta = float(kv["beta"])
        r = int(round((1 + beta) * k))
        profile = StepSpectrum(k=k, sigma1=gap, sigma_k1=1.0)
        A, U, sigma, V = gen_gaussian_spectrum(r, r, profile, seed=seed, r=r)
        return MatrixBundle(spec=spec, A=A, U=U, sigma=sigma, V=V)

    raise BadShape(f"bad matrix spec {spec!r}: unknown kind {kind!r}")
