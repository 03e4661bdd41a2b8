"""Layered benchmark of randskel.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cur --seed 1 --seconds 20 --trace 0

``--workload`` is ``cur``, ``angles``, ``sketch-large`` or ``all``. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run (see README.md). The last line
of standard output is one JSON object; results, spans and a run manifest are
written under ``.perfbench-out/`` in the checkout.
"""

import os
import sys

# BLAS is pinned to one thread before numpy loads: with the trial pool's own
# threads on top, default BLAS threading oversubscribes the cores and the
# wall time measures the scheduler. RANDSKEL_THREADS stays unset, so the
# pool runs at its default size.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("RANDSKEL_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("cur", "angles", "sketch-large")
SETUP_SAMPLES = 5
MIN_ITERATIONS = 2   # the reproducibility check compares two iterations
CHILD_TIMEOUT_S = 170

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_over_opt": "ratio",
    "bound_slack": "ratio",
}
NO_QUALITY = {"err_over_opt": 0.0, "bound_slack": 0.0, "rel_err": 0.0}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import randskel from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import randskel
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import randskel from {src}: {exc}")
    if src not in Path(randskel.__file__).resolve().parents:
        sys.exit(f"perfbench: randskel came from {randskel.__file__}, not {src}")
    import tracer
    import workloads
    return workloads, tracer


# --- measurement ------------------------------------------------------------------

def setup_time(args):
    """Median wall time from spawning a fresh interpreter to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        samples.append(t1 - t0)
    return statistics.median(samples), samples


class Phase:
    """Iterations of one workload's timed call, for a time budget."""

    def __init__(self, workload, state, run_dir, tag, budget, min_iterations, tracer=None):
        self.walls, self.digests, self.spans = [], [], []
        self.first = None
        deadline = time.perf_counter() + budget
        while True:
            out_dir = run_dir / f"{tag}-{len(self.walls)}"
            if tracer is not None:
                tracer.spans = []
            t0 = time.perf_counter()
            if tracer is None:
                output = workload.run(state, str(out_dir))
            else:
                output = tracer.call("iteration", workload.run, state, str(out_dir))
            wall = time.perf_counter() - t0
            self.walls.append(wall)
            self.digests.append(workload.digest(output))
            if tracer is not None:
                self.spans.append(tracer.spans)
            if self.first is None:
                self.first = output
            else:
                shutil.rmtree(out_dir, ignore_errors=True)
            del output  # so one iteration's output is not alive during the next
            now = time.perf_counter()
            if len(self.walls) >= min_iterations and now + wall > deadline:
                break

    @property
    def wall(self):
        return statistics.median(self.walls)


def count_failures(workload, state, phases):
    """(attempted, failed, quality): the first output is checked in full; every
    other iteration must reproduce its digest, or all of its cells fail."""
    first = phases[0]
    attempted, failed_first, quality = workload.check(state, first.first)
    reference = first.digests[0]
    failed = 0
    iterations = 0
    for phase in phases:
        for digest in phase.digests:
            iterations += 1
            failed += failed_first if digest == reference else attempted
    return attempted * iterations, failed, quality


# --- reporting --------------------------------------------------------------------

def manifest(args, phases):
    import numpy as np
    import scipy
    from randskel.bench.experiments import worker_count

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(np), "scipy": blas(scipy)},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "randskel_threads": os.environ.get("RANDSKEL_THREADS"),
        "worker_count": worker_count(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "iterations": {name: len(p.walls) for name, p in phases.items()},
    }


def emit(args, run_dir, metrics, units, info, correct, attempted, failed, extra):
    """Print every metric, then the informational figures, then the JSON line."""
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    info = dict(info, fail_ratio=failed / attempted)
    for name, value in info.items():
        print(f"{args.workload}: {name} = {value:.6g} ratio (not bounded)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    write_json(run_dir / "result.json", dict(result, info=info, **extra))
    print(json.dumps(result))


def run_untraced(args, wl):
    workload = wl.WORKLOADS[args.workload]
    setup_s, setup_samples = setup_time(args)
    state = workload.setup(args.seed)
    run_dir = fresh_dir(args)
    phase = Phase(workload, state, run_dir, "iter", args.seconds, MIN_ITERATIONS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, quality = count_failures(workload, state, [phase])
    correct = quality is not None and failed == 0
    quality = quality or NO_QUALITY
    metrics = {"wall_s": phase.wall, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
               "err_over_opt": quality["err_over_opt"], "bound_slack": quality["bound_slack"]}
    write_json(run_dir / "manifest.json", manifest(args, {"iter": phase}))
    extra = {"wall_samples_s": phase.walls, "setup_samples_s": setup_samples}
    emit(args, run_dir, metrics, END_TO_END, {"rel_err": quality["rel_err"]}, correct,
         attempted, failed, extra)


def run_traced(args, wl, tr):
    workload = wl.WORKLOADS[args.workload]
    targets = tr.targets()
    names = [t.name for t in targets]
    tracer = tr.Tracer()
    tracer.install(targets)
    try:
        state = tracer.call("setup", workload.setup, args.seed)
    finally:
        tracer.uninstall()
    setup_spans = tracer.spans
    run_dir = fresh_dir(args)
    pooled = args.workload == "cur"
    budget = args.seconds / (3 if pooled else 2)

    phases = {"untraced": Phase(workload, state, run_dir, "untraced", budget, MIN_ITERATIONS)}
    tracer.install(targets)
    try:
        phases["traced"] = Phase(workload, state, run_dir, "traced", budget, 1, tracer)
    finally:
        tracer.uninstall()
    if pooled:  # single-thread baseline of the trial pool
        os.environ["RANDSKEL_THREADS"] = "1"
        try:
            phases["serial"] = Phase(workload, state, run_dir, "serial", budget, 1)
        finally:
            del os.environ["RANDSKEL_THREADS"]
    attempted, failed, quality = count_failures(workload, state, list(phases.values()))

    # per traced iteration, each counted with the benchmark's own (traced) set-up
    per_iteration = [tr.layer_metrics(setup_spans + spans, names)
                     for spans in phases["traced"].spans]
    layer = {k: statistics.median(it[k] for it in per_iteration) for k in per_iteration[0]}
    untraced, traced = phases["untraced"].wall, phases["traced"].wall
    serial = phases["serial"].wall if pooled else 0.0
    layer.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "bench.pool.pooled_wall_s": untraced if pooled else 0.0,
        "bench.pool.serial_wall_s": serial,
        "bench.pool.speedup": serial / untraced if pooled else 0.0,
    })

    # tracer self-test: a synthetic tree, plus every single-threaded traced iteration
    selftest = tr.synthetic_selftest()
    for spans in phases["traced"].spans:
        if len({s.thread for s in spans}) == 1:
            root = next(s for s in spans if s.name == "iteration")
            selftest = selftest and tr.check_self_time_sum(spans, root)
    if not selftest:
        print(f"{args.workload}: tracer self-test failed", file=sys.stderr)

    write_json(run_dir / "manifest.json", manifest(args, phases))
    write_json(run_dir / "spans.json",
               {"setup": [s.as_dict() for s in setup_spans],
                "iterations": [[s.as_dict() for s in spans]
                               for spans in phases["traced"].spans]})
    units = {k: u for k, (u, _) in layer_units(tr, names).items()}
    extra = {"wall_samples_s": {k: p.walls for k, p in phases.items()}, "quality": quality,
             "tracer_selftest": selftest,
             "outputs_identical": len({d for p in phases.values() for d in p.digests}) == 1}
    emit(args, run_dir, layer, units, {}, quality is not None and failed == 0 and selftest,
         attempted, failed, extra)


def layer_units(tr, names):
    """Every per-layer metric name -> (unit, better)."""
    units = tr.layer_metric_units(names)
    for key in ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
                "bench.pool.pooled_wall_s", "bench.pool.serial_wall_s"):
        units[key] = ("s", "lower")
    units["bench.pool.speedup"] = ("ratio", "higher")
    return units


def fresh_dir(args):
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


def run_all(args):
    """Every workload in its own process; prints each one's metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl, tr = import_program()
    if args.setup_probe:
        wl.WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return None
    if args.trace:
        run_traced(args, wl, tr)
    else:
        run_untraced(args, wl)
    return None


if __name__ == "__main__":
    main()
