"""Benchmark of the debiasvqa package: train, grid and pipeline workloads.

    python3 bench/run.py [--workload all|train|grid|pipeline] [--seed 0]
                         [--seconds 30] [--trace 0|1]

Each workload is set up several times, then run as a closed loop for
``--seconds`` (at least three operations), in this process and with no
worker threads of its own.  Every operation's outputs are checked.  Lines
before the last describe the environment and print each metric with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` operations alternate between traced
and untraced, and the metrics are per layer.  The exit code is 0 only when
every check passed.  See bench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3       # set-ups per run: at least this many ...
SETUP_MIN_S = 1.0    # ... and at least this long in total
MIN_OPS = 3

# the end-to-end metrics every workload reports in its JSON line
END_TO_END = {"setup_s": "s", "wall_s": "s", "eval_s": "s", "peak_rss_mb": "MB"}

# the per-layer metrics every workload reaches; the rest are printed only
PER_LAYER = [
    *(f"autodiff.{op}.{kind}"
      for op in ("linear", "embedding_mean", "relu", "multiply", "add", "weighted_cross_entropy")
      for kind in ("fwd_ms", "bwd_ms", "calls")),
    "autodiff.backward.self_ms", "autodiff.adam_step_ms", "autodiff.zero_grad_ms",
    "autodiff.softmax.calls", "autodiff.log_softmax_rows.calls",
    "autodiff.cross_entropy_per_sample.calls", "autodiff.nodes_per_step",
    "model.encode_question_ms", "model.encode_visual_ms", "model.predict_vqa_ms",
    "model.predict_qo_ms", "model.save_checkpoint_ms", "model.load_checkpoint_ms",
    "model.checkpoint_bytes",
    "objectives.batch_objective_ms", "objectives.batch_objective.self_ms",
    "objectives.alpha_ms", "objectives.beta.calls",
    "harness.step.forward_ms", "harness.step.objective_ms", "harness.step.backward_ms",
    "harness.step.adam_ms", "harness.step.self_ms", "harness.step.stalls",
    "harness.epoch_order_ms", "harness.evaluate_ms", "harness.evaluate.samples_per_s",
    "synthbench.generate_split_ms", "synthbench.columns_ms", "rng.gaussian_ms",
    "trace.overhead_s",
]

# ROADMAP aim 1's per-step baseline for a default run, ms on 2 cores
ROADMAP_STEP_MS = {"harness.step.forward_ms": 0.6, "harness.step.objective_ms": 0.6,
                   "harness.step.backward_ms": 1.4, "harness.step.adam_ms": 0.44}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "train", "grid", "pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import debiasvqa from this checkout's src/, never from elsewhere."""
    package = SRC / "debiasvqa"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no debiasvqa sources at {package}")
    sys.path.insert(0, str(SRC))
    import debiasvqa
    if Path(debiasvqa.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported debiasvqa from {debiasvqa.__file__}, not {package}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment() -> dict:
    import numpy as np
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": "the machine may be shared; timings can include other tenants' load",
    }


def measure(workload, seed, seconds, trace, tmp):
    """Set up, then run operations until ``seconds`` have passed."""
    from tracing import Tracer, call_count_errors
    from workloads import Op

    tracer = Tracer() if trace else None

    def scope(op):
        return tracer.installed() if op.traced else contextlib.nullcontext()

    # in a traced run the last set-up is traced, and operations alternate
    # traced and untraced, traced first so that lazy first accesses show
    setups = []
    while len(setups) < (2 if trace else SETUP_REPS) or (
            not trace and sum(op.wall_s for op in setups) < SETUP_MIN_S):
        op = Op(traced=trace and len(setups) == 1)
        with scope(op):
            start = perf_counter()
            state = workload.setup(seed, tmp, op)
            op.wall_s = perf_counter() - start
        setups.append(op)

    ops = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(ops) < MIN_OPS * (2 if trace else 1):
        op = Op(traced=trace and len(ops) % 2 == 0)
        with scope(op):
            start = perf_counter()
            try:
                workload.run(state, op)
            except Exception:  # one failed operation is counted, not fatal
                op.errors.append(traceback.format_exc().strip())
            op.wall_s = perf_counter() - start
        ops.append(op)

    first: dict[str, str] = {}
    for op in setups + ops:
        for name, digest in op.digests.items():
            if first.setdefault(name, digest) != digest:
                op.errors.append(f"{name} differs between repetitions "
                                 f"({'traced' if op.traced else 'untraced'} run)")
    # set-ups are not operations: their failures count against the first one
    ops[0].errors += [f"set-up: {error}" for op in setups for error in op.errors]
    if tracer is not None:
        ops[0].errors += call_count_errors(tracer)
    return setups, ops, tracer


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name, setups, ops, tracer):
    """Printed lines, the JSON metrics, and the operations attempted and failed."""
    lines = []

    def line(metric, value, unit, note=""):
        lines.append(f"{name:<9} {metric:<40} {value:>14.6g} {unit:<6} {note}".rstrip())

    plain = [op for op in ops if not op.traced]

    def pooled(key, source=plain):
        return [v for op in source for v in op.samples[key]]

    walls = [op.wall_s for op in plain]
    e2e = {
        "setup_s": statistics.median(op.wall_s for op in setups),
        "wall_s": statistics.median(walls),
        "eval_s": statistics.median(pooled("eval_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    low, high = quartiles(walls)
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "wall_s": f"median of {len(walls)}, quartiles {low:.4g}..{high:.4g}",
             "eval_s": f"median of {len(pooled('eval_s'))}"}
    for metric, value in e2e.items():
        line(metric, value, END_TO_END[metric], notes.get(metric, ""))
    stalls = pooled("stalls", setups + ops)
    if pooled("train_s"):
        line("train_samples_per_s", statistics.median(pooled("train_samples_per_s")), "1/s",
             f"median of {len(pooled('train_s'))} training runs")
        line("step_ms_p50", statistics.median(pooled("step_ms_p50")), "ms",
             "median over runs of each run's p50 step")
        line("step_ms_p98", statistics.median(pooled("step_ms_p98")), "ms",
             "median over runs of each run's p98 step (13 of 671 steps beyond)")
        line("step_stalls", statistics.mean(stalls), "count",
             "steps over 10x the run's median, mean per run")
    if pooled("gen_s"):
        line("gen_s", statistics.median(pooled("gen_s")), "s", f"median of {len(pooled('gen_s'))}")
    for metric, unit in (("ood_accuracy", ""), ("ood_gain_pts", "pts")):
        values = [op.values[metric] for op in ops if metric in op.values]
        if values:
            line(metric, values[0], unit,
                 "same in every repetition" if len(set(values)) == 1 else "VARIES")
    if any("ood_gain_pts" in op.values for op in ops):
        met = all(op.values["ood_gain_pts"] >= 10.0 for op in ops if "ood_gain_pts" in op.values)
        lines.append(f"{name:<9} claim: lpf(5) beats ce on ood by >= 10 points: "
                     f"{'met' if met else 'not met'} at this seed")
    failed = sum(1 for op in ops if op.errors)
    line("error_rate", failed / len(ops), "", f"{failed} of {len(ops)} operations")
    lines += [f"{name:<9} FAILED: {error}" for op in ops for error in op.errors]

    if tracer is None:
        return lines, {m: {"value": v, "unit": END_TO_END[m]} for m, v in e2e.items()}, len(ops), failed

    from tracing import layer_metrics
    layers = layer_metrics(tracer)
    traced = statistics.median(op.wall_s for op in ops if op.traced)
    layers["harness.step.stalls"] = (statistics.mean(stalls), "count")
    layers["trace.overhead_s"] = (traced - e2e["wall_s"], "s")
    line("trace.wall_s", traced, "s", "median of the traced operations")
    for metric, (value, unit) in layers.items():
        baseline = ROADMAP_STEP_MS.get(metric) if name == "train" else None
        if value is not None:
            line(metric, value, unit, f"ROADMAP baseline {baseline}" if baseline else "")
    result = {m: {"value": layers[m][0] or 0.0, "unit": layers[m][1]} for m in PER_LAYER}
    return lines, result, len(ops), failed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"# bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}", flush=True)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                setups, ops, tracer = measure(WORKLOADS[name], args.seed, args.seconds,
                                              args.trace, Path(tmp))
            lines, result, n, bad = report(name, setups, ops, tracer)
            print("\n".join(lines), flush=True)
            attempted += n
            failed += bad
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + metric: value for metric, value in result.items()})
    finally:
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
