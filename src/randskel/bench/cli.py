"""Benchmark command line.

Subcommands: ``cur-accuracy``, ``timing {sketch,pivot}``, ``angles``,
``balance``. Each writes ``<experiment>.csv`` (schema
``experiment,method,matrix,param_l,param_q,trial,metric,value,nanos``) and a
convenience ``<experiment>.svg`` into the output directory.

Exit codes: 0 success, 2 configuration error, 3 numerical-precondition
failure (the offending check is named on stderr). A ``--config FILE`` of
``key=value`` lines mirrors the flags; explicit flags win. ``cur-accuracy``,
``angles`` and ``balance`` run their cells on workers, the calling thread among
them, capped by ``RANDSKEL_THREADS`` (not an integer: exit 2), with BLAS at one
thread for the whole run, realization included, so that neither moves a bit.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..errors import RandskelError, UnknownMethod
from . import experiments, svg
from .experiments import METHODS


@dataclass
class ExperimentConfig:
    """Merged, validated experiment parameters."""

    experiment: str
    matrix: str = ""
    ranks: list = field(default_factory=list)
    methods: list = field(default_factory=lambda: list(METHODS))
    trials: int = 1
    seed: int = 0
    qs: list = field(default_factory=lambda: [0])
    out: str = "."
    sizes: list = field(default_factory=list)
    repeats: int = 5
    k: int = 50
    estimate_trials: int = 3
    max_exact_dim: int = 1500
    n_fixed: int = 256
    alpha: float = 16.0
    beta: float = 32.0
    gamma: float = 1.05
    gaps: list = field(default_factory=lambda: [1.01, 1.5])

    def validate(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.ranks and any(b <= a for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError(f"rank grid must be strictly increasing, got {self.ranks}")
        if self.sizes and any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"size grid must be strictly increasing, got {self.sizes}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def to_file(self, path):
        """Write the flat key=value mirror of this configuration."""
        with open(path, "w") as fh:
            for key, val in vars(self).items():
                if key == "experiment":
                    continue
                if isinstance(val, (list, tuple)):
                    val = ",".join(str(v) for v in val)
                fh.write(f"{key}={val}\n")


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
    return [int(x) for x in text.split(",") if x.strip()]


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


_LIST_FLOAT = ("gaps",)
_LIST_GRID = ("ranks", "sizes", "qs")
_INT = ("trials", "seed", "repeats", "k", "estimate_trials", "max_exact_dim", "n_fixed")
_FLOAT = ("alpha", "beta", "gamma")


def _coerce(key, raw):
    if key in _LIST_GRID:
        return parse_grid(raw)
    if key in _LIST_FLOAT:
        return [float(x) for x in raw.split(",") if x.strip()]
    if key in _INT:
        return int(raw)
    if key in _FLOAT:
        return float(raw)
    if key == "methods":
        return [m.strip() for m in raw.split(",") if m.strip()]
    return raw


def build_config(experiment, args):
    """The experiment's defaults, then the config file's values, then the flags."""
    defaults = {key: list(val) if isinstance(val, list) else val
                for key, val in _DEFAULTS.get(experiment, {}).items()}
    cfg = ExperimentConfig(experiment, **defaults)
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, _coerce(key, raw))
    for key in vars(cfg):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _add_common(p):
    p.add_argument("--matrix", help="matrix spec (snn:..., gauss:..., step:..., csv:PATH)")
    p.add_argument("--ranks", type=parse_grid, help="l grid, a:b:step or comma list")
    p.add_argument("--methods", type=lambda s: [m.strip() for m in s.split(",")],
                   help="comma-separated method names")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--q", dest="qs", type=parse_grid, help="iteration counts, comma list")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--config", help="key=value config file mirroring the flags")


def make_parser():
    ap = argparse.ArgumentParser(prog="randskel-bench",
                                 description="desk-scale randomized skeletonization benchmarks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cur-accuracy", help="CUR error versus truncated-SVD baseline")
    _add_common(p)

    p = sub.add_parser("timing", help="wall-time measurements")
    p.add_argument("what", choices=["sketch", "pivot"])
    _add_common(p)
    p.add_argument("--sizes", type=parse_grid, help="problem-size grid")
    p.add_argument("--repeats", type=int)
    p.add_argument("--n-fixed", dest="n_fixed", type=int,
                   help="fixed trailing dimension for sketch timing")

    p = sub.add_parser("angles", help="canonical-angle bounds and estimates")
    _add_common(p)
    p.add_argument("--k", type=int, help="target rank (default 50)")
    p.add_argument("--estimate-trials", dest="estimate_trials", type=int)
    p.add_argument("--max-exact-dim", dest="max_exact_dim", type=int)

    p = sub.add_parser("balance", help="oversampling versus iteration balance study")
    _add_common(p)
    p.add_argument("--k", type=int, help="target rank (default 10)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--gaps", type=lambda s: [float(x) for x in s.split(",")])
    return ap


def _median_by(rows, metric, key_field, series_field):
    grouped = defaultdict(lambda: defaultdict(list))
    for r in rows:
        if r.metric == metric:
            grouped[getattr(r, series_field)][getattr(r, key_field)].append(r.value)
    out = {}
    for series, pts in grouped.items():
        xs = sorted(pts)
        out[series] = (xs, [float(np.median(pts[x])) for x in xs])
    return out


def _render_svg(experiment, rows, path):
    if experiment == "cur_accuracy":
        data = _median_by(rows, "err_fro", "param_l", "method")
        base = _median_by(rows, "opt_fro", "param_l", "method")
        series = [(m, xs, ys) for m, (xs, ys) in sorted(data.items())]
        series += [("optimal", xs, ys) for _, (xs, ys) in sorted(base.items())]
        svg.render_line_chart(path, "CUR accuracy vs rank", "rank l",
                              "relative Frobenius error", series, logy=True)
    elif experiment in ("timing_pivot", "timing_sketch"):
        data = defaultdict(lambda: ([], []))
        for r in rows:
            if r.metric == "median_time_ns":
                size = int(r.matrix.split(":")[1].split("x")[0])
                data[r.method][0].append(size)
                data[r.method][1].append(r.value)
        series = [(m, xs, ys) for m, (xs, ys) in sorted(data.items())]
        svg.render_line_chart(path, experiment.replace("_", " "), "problem size",
                              "median time (ns)", series, logy=True)
    elif experiment == "angles":
        qmin = min(r.param_q for r in rows)
        lmin = min(r.param_l for r in rows)
        series_names = sorted({r.method for r in rows if r.metric.startswith("left_sin")})
        series = []
        for name in series_names:
            pts = sorted((int(r.metric.rsplit("_", 1)[1]), r.value)
                         for r in rows
                         if r.method == name and r.metric.startswith("left_sin")
                         and r.trial == 0 and r.param_q == qmin and r.param_l == lmin)
            if pts:
                series.append((name, [p[0] for p in pts], [p[1] for p in pts]))
        svg.render_line_chart(path, "left-side angle sines and bounds", "index i",
                              "sin", series, logy=True)
    elif experiment == "balance":
        data = defaultdict(lambda: ([], []))
        for r in rows:
            if r.metric == "phi":
                data[f"phi {r.matrix}"][0].append(r.param_q)
                data[f"phi {r.matrix}"][1].append(r.value)
        meas = defaultdict(lambda: defaultdict(list))
        for r in rows:
            if r.metric == "sin_mean":
                meas[f"measured {r.matrix}"][r.param_q].append(r.value)
        for name, pts in meas.items():
            xs = sorted(pts)
            data[name] = (xs, [float(np.mean(pts[x])) for x in xs])
        series = [(m, xs, ys) for m, (xs, ys) in sorted(data.items())]
        svg.render_line_chart(path, "budget balance", "power iterations q",
                              "phi / mean sin", series, logy=False)


_DEFAULTS = {
    "cur_accuracy": dict(matrix="snn:300x300,r=300,a=2,r1=100",
                         ranks=[20, 40, 60, 80, 100], trials=5),
    "timing_pivot": dict(sizes=[500, 1000, 2000], ranks=[100, 400]),
    "timing_sketch": dict(sizes=[512, 1024, 2048], ranks=[50, 200]),
    "angles": dict(matrix="gauss:500x500,profile=slow,r=450", ranks=[80, 200],
                   qs=[0, 1], trials=1),
    "balance": dict(k=10, trials=5),
}

#: Each experiment's driver in :mod:`.experiments`, looked up by name when it
#: runs, so that a wrapper installed on the module is the one called.
_DRIVERS = {"cur_accuracy": "run_cur_accuracy", "timing_pivot": "run_timing_pivot",
            "timing_sketch": "run_timing_sketch", "angles": "run_angles",
            "balance": "run_balance"}


def run(argv=None):
    args = make_parser().parse_args(argv)
    if args.command == "timing":
        experiment = f"timing_{args.what}"
    else:
        experiment = args.command.replace("-", "_")
    try:
        cfg = build_config(experiment, args)
        if not experiment.startswith("timing"):
            experiments.worker_count()  # the sweep's cap fails before any work
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    csv_path = os.path.join(cfg.out, f"{experiment}.csv")
    try:
        rows = getattr(experiments, _DRIVERS[experiment])(cfg)
        os.makedirs(cfg.out, exist_ok=True)
        experiments.write_rows(csv_path, rows)
    except UnknownMethod as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
