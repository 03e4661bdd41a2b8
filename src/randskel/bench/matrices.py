"""Matrix-spec mini-language for the benchmark CLI.

Specs (brackets mark keys with a default; keys may come in any order after
the ``MxN`` size):

    snn:MxN[,r=R][,a=A][,r1=R1][,density=D]
        defaults r=min(m,n), a=2, r1=min(100,r), density=0.025
    gauss:MxN[,profile=slow|fast][,r=R][,r1=R1]
        defaults r=min(m,n), r1=20, profile=slow
    step:k=K,gap=G,beta=B
    csv:PATH

``_KINDS`` gives each key of ``snn``, ``gauss`` and ``step`` its parser and
default, and :func:`parse_spec` reads every spec through it, so that a spec
that cannot be read raises :class:`BadShape` before any matrix is built.
Range checks of the generators (``r <= min(m, n)``, the snn weights and
density, the CSV contents) stay with the generators.

Every kind is realized as a dense array. ``gauss`` and ``step`` matrices
carry their exact SVD factors; ``snn`` and ``csv`` matrices get one computed
on demand (bounded by a size cap, since that is a dense decomposition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dense import svd_thin
from ..errors import BadShape, MatrixTooLarge
from ..testmat import (
    SNN_DEFAULT_DENSITY,
    FastDecay,
    SlowDecay,
    SnnParams,
    StepSpectrum,
    gen_gaussian_spectrum,
    gen_snn,
    load_csv,
    snn_weights,
)


@dataclass
class MatrixBundle:
    """A realized test matrix plus whatever ground truth it comes with."""

    spec: str
    A: np.ndarray
    U: np.ndarray | None = None
    sigma: np.ndarray | None = None
    V: np.ndarray | None = None

    @property
    def shape(self):
        return self.A.shape

    def dense(self):
        return self.A

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


def int_at_least(low):
    """The parser of an integer of at least ``low``."""
    def parse(text):
        val = int(text)
        if val < low:
            raise ValueError(f"must be >= {low}, got {val}")
        return val
    return parse


def finite_float(text):
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"must be finite, got {text!r}")
    return val


def _one_of(choices):
    """The parser of a key of ``choices``; it returns that key's value."""
    def parse(text):
        if text not in choices:
            raise ValueError(f"expected one of {'/'.join(choices)}, got {text!r}")
        return choices[text]
    return parse


def _size(text):
    dims = text.lower().split("x")
    if len(dims) != 2:
        raise ValueError(f"expected MxN, got {text!r}")
    return tuple(map(int_at_least(1), dims))


#: Each kind's keys in order, each with the parser of its value and its
#: default: text read by that parser, a function of the values before it, or
#: None for a required key. A first key ``size`` is the ``MxN`` token, given
#: without its name.
_KINDS = {
    "snn": {"size": (_size, None), "r": (int_at_least(1), lambda v: min(v["size"])),
            "a": (finite_float, "2"), "r1": (int_at_least(0), lambda v: min(100, v["r"])),
            "density": (finite_float, repr(SNN_DEFAULT_DENSITY))},
    "gauss": {"size": (_size, None), "r": (int_at_least(1), lambda v: min(v["size"])),
              "r1": (int_at_least(0), "20"),
              "profile": (_one_of({"slow": SlowDecay, "fast": FastDecay}), "slow")},
    "step": {"k": (int_at_least(1), None), "gap": (finite_float, None),
             "beta": (finite_float, None)},
}


def parse_spec(text):
    """``(kind, values)`` of the spec ``text``: ``{"path": PATH}`` for
    ``csv``, else every key of the kind's ``_KINDS`` entry with its parsed
    value or its default. Raises :class:`BadShape` naming the spec for an
    unknown kind, a missing, unknown or repeated key, a value its parser
    rejects, a bad ``MxN``, or a csv ``PATH`` that cannot be opened."""
    def bad(why):
        return BadShape(f"bad matrix spec {text!r}: {why}")

    kind, colon, rest = text.partition(":")
    kind = kind.strip().lower()
    if colon and kind == "csv":
        try:
            open(rest, "rb").close()
        except OSError as exc:
            raise bad(f"cannot open {rest!r}: {exc.strerror}") from None
        return kind, {"path": rest}
    if not colon or kind not in _KINDS:
        raise bad(f"expected KIND: with KIND one of {', '.join(_KINDS)}, csv")
    keys = _KINDS[kind]
    tokens = [token.strip() for token in rest.split(",")]
    given = {"size": tokens.pop(0)} if "size" in keys else {}
    for token in tokens:
        key, eq, val = (part.strip() for part in token.partition("="))
        if not eq:
            raise bad(f"expected key=value, got {token!r}")
        if key not in keys:
            raise bad(f"unknown key {key!r} (choose from "
                      f"{', '.join(name for name in keys if name != 'size')})")
        if key in given:
            raise bad(f"repeated key {key!r}")
        given[key] = val
    values = {}
    for key, (parse, default) in keys.items():
        field = given.get(key, default)
        if field is None:
            raise bad(f"missing key {key!r}")
        try:
            values[key] = field(values) if callable(field) else parse(field)
        except ValueError as exc:
            raise bad(f"{key}: {exc}") from None
    return kind, values


def realize_matrix(spec, seed=0):
    """Build the matrix a spec string describes, seeded deterministically."""
    kind, v = parse_spec(spec)
    if kind == "csv":
        return MatrixBundle(spec=spec, A=load_csv(v["path"]))
    if kind == "snn":
        params = SnnParams(*v["size"], r=v["r"], s=snn_weights(v["a"], v["r1"], v["r"]),
                           density=v["density"], seed=seed)
        return MatrixBundle(spec=spec, A=gen_snn(params))
    if kind == "gauss":
        A, U, sigma, V = gen_gaussian_spectrum(*v["size"], v["profile"](r1=v["r1"]),
                                               seed=seed, r=v["r"])
    else:
        r = int(round((1 + v["beta"]) * v["k"]))
        A, U, sigma, V = gen_gaussian_spectrum(r, r, StepSpectrum(k=v["k"], sigma1=v["gap"]),
                                               seed=seed, r=r)
    return MatrixBundle(spec=spec, A=A, U=U, sigma=sigma, V=V)
