"""In-memory span tracer that wraps randskel's public functions from outside.

Every traced function is replaced, for the duration of a traced phase, at
each module attribute (or class attribute) that holds it, so callers that
did ``from .dense import svd_thin`` see the wrapper too. The library itself
is not edited.

A span records name, start, end, parent span and thread id. Calls made on
worker threads that have no open span of their own are parented to the
innermost open span of the thread that started tracing (the benchmark's
main thread), which is where the worker pool was entered.

Self time of a span is its duration minus the union of the intervals its
child spans cover, so overlapping children on a worker pool are not counted
twice.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "error", "counters")

    def __init__(self, sid, name, parent, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = False
        self.counters = None

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "error": self.error,
                "counters": self.counters}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patched = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._main_stack[-1].id
            except IndexError:
                parent = None
        span = Span(next(self._ids), name, parent, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span, stack

    def _close(self, span, stack):
        span.end = time.perf_counter()
        stack.pop()
        self.spans.append(span)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name`` (used for root spans)."""
        span, stack = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, stack)

    def wrapper(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                tracer._close(span, stack)
                raise
            tracer._close(span, stack)
            if observe is not None:
                span.counters = observe(args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Wrap every target; ``targets`` are :class:`Target` records."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "randskel" or n.startswith("randskel."))]
        for t in targets:
            if t.owner is not None:  # a method: patch the classes that define it
                for cls in t.owner:
                    original = cls.__dict__[t.attr]
                    setattr(cls, t.attr, self.wrapper(t.name, original, t.observe_for(cls)))
                    self._patched.append((cls, t.attr, original))
                continue
            original = getattr(t.module, t.attr)
            wrapped = self.wrapper(t.name, original, t.observe)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()


class Target:
    """One traced function: a module-level function or a method of classes."""

    def __init__(self, name, module, attr, observe=None, owner=None, observe_for=None):
        self.name = name
        self.module = module
        self.attr = attr
        self.observe = observe
        self.owner = owner
        self.observe_for = observe_for or (lambda cls: observe)


# --- self time ------------------------------------------------------------------

def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def check_self_time_sum(spans, root, rel=1e-9):
    """On a single-threaded tree, self times of the root's subtree add up to its duration."""
    selfs = self_times(spans)
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s.parent].append(s)
    total, todo = 0.0, [root]
    while todo:
        s = todo.pop()
        total += selfs[s.id]
        todo.extend(by_parent.get(s.id, ()))
    duration = root.end - root.start
    return abs(total - duration) <= rel * max(duration, 1e-12)


def synthetic_selftest():
    """Trace a nested single-threaded call tree and check its self times."""
    tracer = Tracer()

    def busy(n):
        return sum(i * i for i in range(n))

    leaf = tracer.wrapper("leaf", busy)

    def middle(n):
        return leaf(n) + busy(n) + leaf(n)

    mid = tracer.wrapper("middle", middle)

    def top():
        return mid(20000) + busy(20000) + leaf(20000) + mid(10000)

    tracer.call("root", top)
    root = next(s for s in tracer.spans if s.name == "root")
    return check_self_time_sum(tracer.spans, root)


# --- what is traced -------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _gflop(formula):
    def observe(args, kwargs, result):
        m, n = args[0].shape
        return {"gflop": formula(m, n) / 1e9}
    return observe


def _flop_qr_ortho(m, n):   # Householder QR, then forming the thin Q
    return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0


def _flop_svd_thin(m, n):   # economy SVD with both factors (gesdd estimate)
    big, k = max(m, n), min(m, n)
    return 4.0 * big * k * k + 8.0 * k ** 3


def _flop_lupp(m, n):
    return m * n * n - n ** 3 / 3.0


def _flop_cpqr(m, n):       # pivoted QR plus the economic Q
    k = min(m, n)
    return 4.0 * m * n * k - 2.0 * k * k * (m + n) + 4.0 * k ** 3 / 3.0


def _rank_short(args, kwargs, result):
    l = _arg(args, kwargs, 1, "l")
    short = result.rank_detected is not None and l is not None and result.rank_detected < l
    return {"rank_short": int(short)}


def _truncated(args, kwargs, result):
    l = _arg(args, kwargs, 1, "l")
    return {"truncated": int(l is not None and result.U_hat.shape[1] < l)}


def _gap_invalid(args, kwargs, result):
    return {"invalid": int(not result.valid)}


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _to_dense_mb(generic):
    def observe(args, kwargs, result):
        op = args[0]
        mb = result.nbytes / 1e6
        if generic:  # the generic path applies the operator to an identity
            mb += op.in_dim * op.in_dim * 8 / 1e6
        return {"mb": mb}
    return observe


def targets():
    """The traced layer boundaries, named ``<layer>.<function>``."""
    from randskel import angles, dense, rangefinder, skeleton, sketch, testmat
    from randskel.bench import experiments, matrices

    dense_targets = [
        Target("dense.qr_ortho", dense, "qr_ortho", _gflop(_flop_qr_ortho)),
        Target("dense.svd_thin", dense, "svd_thin", _gflop(_flop_svd_thin)),
        Target("dense.lupp", dense, "lupp", _gflop(_flop_lupp)),
        Target("dense.cpqr", dense, "cpqr", _gflop(_flop_cpqr)),
    ]
    op_classes = [c for c in (sketch.SketchOperator, sketch.GaussianSketch,
                              sketch.SrttSketch, sketch.SparseSignSketch)
                  if "to_dense" in c.__dict__]
    sketch_targets = [
        Target("sketch.make_embedding", sketch, "make_embedding"),
        Target("sketch.sketch_rows", sketch, "sketch_rows"),
        Target("sketch.SketchOperator.apply", sketch, "apply", owner=[sketch.SketchOperator]),
        Target("sketch.SketchOperator.apply_t", sketch, "apply_t",
               owner=[sketch.SketchOperator]),
        Target("sketch.SketchOperator.to_dense", sketch, "to_dense", owner=op_classes,
               observe_for=lambda cls: _to_dense_mb(cls is sketch.SketchOperator)),
    ]
    rangefinder_targets = [
        Target("rangefinder.randomized_svd", rangefinder, "randomized_svd", _truncated),
        Target("rangefinder.power_iter_stable", rangefinder, "power_iter_stable"),
        Target("rangefinder.power_iter_plain", rangefinder, "power_iter_plain"),
    ]
    skeleton_targets = [
        Target("skeleton.select_columns_lupp", skeleton, "select_columns_lupp", _rank_short),
        Target("skeleton.select_columns_cpqr", skeleton, "select_columns_cpqr", _rank_short),
        Target("skeleton.select_deim", skeleton, "select_deim", _rank_short),
        Target("skeleton.select_leverage", skeleton, "select_leverage"),
        Target("skeleton.posterior_eta", skeleton, "posterior_eta"),
        Target("skeleton.build_cur_stable", skeleton, "build_cur_stable"),
    ]
    angles_targets = [
        Target("angles.canonical_angles", angles, "canonical_angles"),
        Target("angles.posterior_simple", angles, "posterior_simple"),
        Target("angles.posterior_gap", angles, "posterior_gap", _gap_invalid),
        Target("angles.unbiased_estimates", angles, "unbiased_estimates"),
        Target("angles.prior_space_agnostic", angles, "prior_space_agnostic"),
        Target("angles.prior_reference_bound", angles, "prior_reference_bound"),
    ]
    snn = [testmat.ImplicitSnnOperator]
    testmat_targets = [
        Target("testmat.realize_matrix", matrices, "realize_matrix"),
        Target("testmat.gen_snn", testmat, "gen_snn"),
        Target("testmat.gen_snn_operator", testmat, "gen_snn_operator"),
        Target("testmat.gen_gaussian_spectrum", testmat, "gen_gaussian_spectrum"),
        Target("testmat.ImplicitSnnOperator.matmat", testmat, "matmat", owner=snn),
        Target("testmat.ImplicitSnnOperator.rmatmat", testmat, "rmatmat", owner=snn),
        Target("testmat.ImplicitSnnOperator.columns", testmat, "columns", owner=snn),
        Target("testmat.ImplicitSnnOperator.rows", testmat, "rows", owner=snn),
    ]
    bench_targets = [
        Target("bench.run_cur_accuracy", experiments, "run_cur_accuracy"),
        Target("bench.run_angles", experiments, "run_angles"),
        Target("bench.write_rows", experiments, "write_rows", _file_mb),
    ]
    return (dense_targets + sketch_targets + rangefinder_targets + skeleton_targets
            + angles_targets + testmat_targets + bench_targets)


SELECTORS = ("skeleton.select_columns_lupp", "skeleton.select_columns_cpqr",
             "skeleton.select_deim", "skeleton.select_leverage")
DENSE = ("dense.qr_ortho", "dense.svd_thin", "dense.lupp", "dense.cpqr")


def layer_metric_units(names):
    """Per-layer metric name -> (unit, better) for the traced names ``names``."""
    out = {}
    for name in names:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        if name in SELECTORS:
            out[f"{name}.total_s"] = ("s", "lower")
        if name in DENSE:
            out[f"{name}.gflop"] = ("Gflop", "lower")
            out[f"{name}.gflops"] = ("Gflop/s", "higher")
    out["sketch.to_dense.mb"] = ("MB", "lower")
    out["rangefinder.randomized_svd.truncated"] = ("count", "lower")
    out["skeleton.rank_short"] = ("count", "lower")
    out["skeleton.build_cur_stable.failed"] = ("count", "lower")
    out["angles.posterior_gap.invalid"] = ("count", "lower")
    out["bench.write_rows.mb"] = ("MB", "lower")
    return out


def layer_metrics(spans, names):
    """Per-layer figures of one traced iteration (spans of one root)."""
    selfs = self_times(spans)
    vals = {k: 0.0 for k in layer_metric_units(names)}
    for s in spans:
        if s.name not in names:
            continue
        vals[f"{s.name}.calls"] += 1
        vals[f"{s.name}.self_s"] += selfs[s.id]
        if s.name in SELECTORS:
            vals[f"{s.name}.total_s"] += s.end - s.start
        if s.error and s.name == "skeleton.build_cur_stable":
            vals["skeleton.build_cur_stable.failed"] += 1
        for key, v in (s.counters or {}).items():
            if key == "rank_short":
                vals["skeleton.rank_short"] += v
            elif s.name == "sketch.SketchOperator.to_dense":
                vals["sketch.to_dense.mb"] += v
            else:
                vals[f"{s.name}.{key}"] += v
    for name in DENSE:
        busy = vals[f"{name}.self_s"]
        vals[f"{name}.gflops"] = vals[f"{name}.gflop"] / busy if busy > 0 else 0.0
    return vals
