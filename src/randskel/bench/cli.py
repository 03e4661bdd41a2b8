"""Benchmark command line.

Subcommands: ``cur-accuracy``, ``timing {sketch,pivot}``, ``angles``,
``balance``. Each writes ``<experiment>.csv`` (schema
``experiment,method,matrix,param_l,param_q,trial,metric,value,nanos``) and a
convenience ``<experiment>.svg``, drawn as ``_CHARTS`` says, into the output
directory.

Each subcommand takes exactly the parameters its driver reads, which
``_DEFAULTS`` lists with their defaults, plus ``--out`` and ``--config``.
``_PARAMS`` gives each parameter its flag and the one parser that reads its
value, from a flag or from a ``--config FILE`` of ``key=value`` lines
(explicit flags win).

Exit codes: 0 success, 2 configuration error, 3 numerical-precondition
failure (the offending check is named on stderr). Every configuration error
comes before any work and leaves no output directory: a value its parser
rejects (a ``--matrix`` spec that ``matrices.parse_spec`` cannot read among
them), an unknown flag or key, a bad ``RANDSKEL_THREADS``, an ``--out`` that
cannot be made. ``cur-accuracy``, ``angles`` and ``balance`` run their cells
on workers, the calling thread among them, capped by ``RANDSKEL_THREADS`` (not
an integer: exit 2), with BLAS at one thread for the whole run, realization
included, so that neither moves a bit.
"""

from __future__ import annotations

import argparse
import copy
import os
import statistics
import sys
import types
from collections import defaultdict

from ..errors import RandskelError, UnknownMethod
from . import experiments, svg
from .experiments import METHODS
from .matrices import finite_float, int_at_least, parse_spec


def parse_grid(text):
    """Parse ``a:b:step`` (inclusive) or a comma list into an int list."""
    text = text.strip()
    if ":" in text:
        bits = text.split(":")
        if len(bits) != 3:
            raise ValueError(f"grid must be a:b:step, got {text!r}")
        a, b, step = (int(x) for x in bits)
        if step <= 0 or b < a:
            raise ValueError(f"bad grid {text!r}")
        return list(range(a, b + 1, step))
    return _items(text, int)


def load_config_file(path):
    """Flat key=value config; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _items(text, parse):
    """Each entry of the comma list ``text`` read by ``parse``; there is at
    least one entry, and none is empty."""
    items = [x.strip() for x in text.split(",")]
    if not all(items):
        raise ValueError(f"expected a comma list without empty entries, got {text!r}")
    return [parse(x) for x in items]


def _grid(low, increasing=True):
    """The parser of a :func:`parse_grid` grid whose entries are at least ``low``."""
    def parse(text):
        grid = parse_grid(text)
        if min(grid) < low:
            raise ValueError(f"entries must be >= {low}, got {grid}")
        if increasing and any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {grid}")
        return grid
    return parse


def _matrix(text):
    """The spec ``text`` unchanged, once :func:`parse_spec` has read it."""
    parse_spec(text)
    return text


def _method(name):
    if name not in METHODS:
        raise UnknownMethod(f"unknown method {name!r} (choose from {', '.join(METHODS)})")
    return name


#: Each parameter's flag, the parser of its text from a flag or a config file
#: (a ``ValueError`` is a configuration error), and its help.
_PARAMS = {
    "matrix": ("--matrix", _matrix,
               "matrix spec: snn:MxN[,key=value...], gauss:MxN[,key=value...], "
               "step:k=K,gap=G,beta=B or csv:PATH (keys and defaults: README, Matrix specs)"),
    "ranks": ("--ranks", _grid(1), "l grid, a:b:step or comma list, increasing"),
    "methods": ("--methods", lambda s: _items(s, _method), "comma-separated method names"),
    "trials": ("--trials", int_at_least(1), "trials per cell"),
    "seed": ("--seed", int_at_least(0), "base seed"),
    "qs": ("--q", _grid(0, increasing=False), "power-iteration counts, a:b:step or comma list"),
    "sizes": ("--sizes", _grid(1), "problem-size grid, a:b:step or comma list, increasing"),
    "repeats": ("--repeats", int_at_least(1), "timed calls per scheme"),
    "n_fixed": ("--n-fixed", int_at_least(1), "column count of the sketched matrices"),
    "k": ("--k", int_at_least(1), "target rank"),
    "estimate_trials": ("--estimate-trials", int_at_least(1), "Monte-Carlo trials per estimate"),
    "max_exact_dim": ("--max-exact-dim", int_at_least(1),
                      "largest dimension given a dense SVD for its exact factors"),
    "alpha": ("--alpha", finite_float, "budget of alpha*k products with the matrix"),
    "beta": ("--beta", finite_float, "step spectrum of rank (1+beta)*k"),
    "gamma": ("--gamma", finite_float, "admits q with 2q+1 <= alpha/gamma^2"),
    "gaps": ("--gaps", lambda s: _items(s, finite_float), "spectral steps, comma list"),
    "out": ("--out", str, "output directory"),
}

#: Each experiment's parameters, which are exactly those its driver reads,
#: with their defaults; every experiment also takes ``out``.
_DEFAULTS = {
    "cur_accuracy": dict(matrix="snn:300x300,r=300,a=2,r1=100", ranks=[20, 40, 60, 80, 100],
                         methods=list(METHODS), trials=5, seed=0),
    "timing_pivot": dict(sizes=[500, 1000, 2000], ranks=[100, 400], repeats=5, seed=0),
    "timing_sketch": dict(sizes=[512, 1024, 2048], ranks=[50, 200], repeats=5, n_fixed=256,
                          seed=0),
    "angles": dict(matrix="gauss:500x500,profile=slow,r=450", ranks=[80, 200], qs=[0, 1],
                   trials=1, k=50, estimate_trials=3, max_exact_dim=1500, seed=0),
    "balance": dict(k=10, alpha=16.0, beta=32.0, gamma=1.05, gaps=[1.01, 1.5], trials=5,
                    seed=0),
}

#: Each experiment's subcommand help.
_HELP = {"cur_accuracy": "CUR error versus truncated-SVD baseline",
         "timing_pivot": "pivoting schemes", "timing_sketch": "embeddings",
         "angles": "canonical-angle bounds and estimates",
         "balance": "oversampling versus iteration balance study"}


def _defaults(experiment):
    """A fresh copy of ``experiment``'s defaults, ``out`` among them."""
    return copy.deepcopy(_DEFAULTS[experiment]) | {"out": "."}


def build_config(experiment, args):
    """The namespace of ``experiment``'s parameters and ``out``: the defaults,
    then the config file's values, then the flags, each value of a file or a
    flag read by its parameter's parser."""
    cfg = _defaults(experiment)
    texts = load_config_file(args.config) if args.config else {}
    for key in texts:
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r} for {experiment}")
    texts.update((key, val) for key, val in vars(args).items()
                 if key in cfg and val is not None)
    for key, text in texts.items():
        try:
            cfg[key] = _PARAMS[key][1](text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return types.SimpleNamespace(**cfg)


def make_parser():
    ap = argparse.ArgumentParser(prog="randskel-bench",
                                 description="desk-scale randomized skeletonization benchmarks")
    sub = ap.add_subparsers(dest="command", required=True)
    timing = sub.add_parser("timing", help="wall-time measurements").add_subparsers(
        dest="what", required=True)
    for experiment in _DEFAULTS:
        group = timing if experiment.startswith("timing_") else sub
        p = group.add_parser(experiment.removeprefix("timing_").replace("_", "-"),
                             help=_HELP[experiment])
        p.set_defaults(experiment=experiment)
        for key, default in _defaults(experiment).items():
            flag, _, text = _PARAMS[key]
            shown = ",".join(map(str, default)) if isinstance(default, list) else default
            p.add_argument(flag, dest=key, help=f"{text} (default {shown})")
        p.add_argument("--config", help="key=value file of these parameters; flags win")
    return ap


def _cur_point(row, first):
    if row.metric in ("err_fro", "opt_fro"):
        return (row.method if row.metric == "err_fro" else "optimal"), row.param_l


def _timing_point(row, first):
    if row.metric == "median_time_ns":
        return f"{row.method} l={row.param_l}", experiments.dense_size(row.matrix)


def _angles_point(row, first):
    if (row.metric.startswith("left_sin_") and row.trial == 0
            and (row.param_l, row.param_q) == (first.param_l, first.param_q)):
        return row.method, int(row.metric.rsplit("_", 1)[1])


def _balance_point(row, first):
    if row.metric in ("phi", "sin_mean"):
        return f"{'phi' if row.metric == 'phi' else 'measured'} {row.matrix}", row.param_q


#: Each experiment's chart: its title, x and y labels, whether y is
#: logarithmic, and the ``(series, x)`` point of a row given the CSV's first
#: row, or None for a row the chart leaves out.
_CHARTS = {
    "cur_accuracy": ("CUR accuracy vs rank", "rank l", "relative Frobenius error", True,
                     _cur_point),
    "timing_pivot": ("timing pivot", "problem size", "median time (ns)", True, _timing_point),
    "timing_sketch": ("timing sketch", "problem size", "median time (ns)", True,
                      _timing_point),
    "angles": ("left-side angle sines and bounds", "index i", "sin", True, _angles_point),
    "balance": ("budget balance", "power iterations q", "phi / median sin", False,
                _balance_point),
}


def _render_svg(experiment, rows, path):
    """Chart ``rows`` as ``experiment``'s ``_CHARTS`` entry says: each point
    is the median of its rows' values, each series runs in ascending x, and
    the series come in the order of their first rows."""
    title, xlabel, ylabel, logy, point = _CHARTS[experiment]
    values = defaultdict(lambda: defaultdict(list))
    for row in rows:
        at = point(row, rows[0])
        if at is not None:
            values[at[0]][at[1]].append(row.value)
    series = []
    for name, by_x in values.items():
        xs = sorted(by_x)
        series.append((name, xs, [statistics.median(by_x[x]) for x in xs]))
    svg.render_line_chart(path, title, xlabel, ylabel, series, logy=logy)


def run(argv=None):
    args = make_parser().parse_args(argv)
    experiment = args.experiment
    try:
        cfg = build_config(experiment, args)
        if not experiment.startswith("timing"):
            experiments.worker_count()  # the sweep's cap fails before any work
        os.makedirs(cfg.out, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    csv_path = os.path.join(cfg.out, f"{experiment}.csv")
    try:
        rows = getattr(experiments, f"run_{experiment}")(cfg)
        experiments.write_rows(csv_path, rows)
    except RandskelError as exc:
        print(f"numerical precondition failed [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return 3

    try:
        _render_svg(experiment, rows, os.path.join(cfg.out, f"{experiment}.svg"))
    except Exception as exc:  # plots are convenience only
        print(f"svg rendering skipped: {exc}", file=sys.stderr)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
