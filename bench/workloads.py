"""The benchmark's workloads and the checks on their outputs.

All three are closed loops: one caller, and each operation starts when the
previous one returns.  The workload seed reaches only the generated inputs
and the model and train seeds, exactly as ``debiasvqa gen/train --seed``.

- ``train``: one default ``lpf(5)`` run (batch 256, 21 epochs, 672 steps)
  on the in-memory default split, then its checkpoint and one evaluation
  on the shifted split.  The per-step cost of the tape, the objective and
  Adam dominates it; there is no split I/O and a single run, so
  run-stacking and split-format changes should leave it flat.
- ``grid``: the one-seed slice of the acceptance fixture: ``ce``,
  ``lpf(5)``, ``focal`` and ``precomputed`` trained on one shared split,
  each evaluated on the in-distribution and shifted splits.  It is the
  only workload that reaches every alpha source, and the one where
  stacking independent runs should show.
- ``pipeline``: ``debiasvqa gen`` and two ``debiasvqa eval`` commands
  through ``cli.main`` on files.  It writes and reads split files and runs
  the model forward-only at batch 4000; the checkpoint is trained during
  set-up, so step optimisations should barely move it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from debiasvqa import cli, harness, model, synthbench
from debiasvqa.objectives import LossVariant

VARIANTS = {"ce": LossVariant.ce(), "lpf5": LossVariant.lpf(5.0),
            "focal": LossVariant.focal(), "precomputed": LossVariant.precomputed()}


class Op:
    """What one operation (or one set-up) measured, produced and failed."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.wall_s = 0.0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.digests: dict[str, str] = {}
        self.values: dict[str, float] = {}
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_and_check(split, name: str, seed: int, tmp: Path, op: Op,
                    test_splits: dict) -> dict[str, float]:
    """Train one model, save and reload its checkpoint, evaluate it.

    Returns the overall accuracy on each of ``test_splits``.
    """
    config = harness.TrainConfig(variant=VARIANTS[name], seed=seed,
                                 model=cli.model_config_for(split.config, seed))
    stamps: list[float] = []
    start = perf_counter()
    params, _ = harness.train(split, config,
                              record_hook=lambda *_: stamps.append(perf_counter()))
    train_s = perf_counter() - start
    op.samples["train_s"].append(train_s)
    op.samples["train_samples_per_s"].append(len(split) * config.epochs / train_s)
    # a step is the gap between successive record_hook calls
    gaps = np.diff(stamps) * 1e3
    median = float(np.median(gaps))
    op.samples["step_ms_p50"].append(median)
    op.samples["step_ms_p98"].append(float(np.percentile(gaps, 98)))
    op.samples["stalls"].append(int((gaps > 10.0 * median).sum()))

    path = tmp / f"{name}.ckpt"
    model.save_checkpoint(params, path)
    op.digests[path.name] = sha256(path)
    loaded = model.load_checkpoint(path)
    op.check(all(np.array_equal(loaded[n].data, params[n].data) for n in params.names()),
             f"{name}: checkpoint does not reload bit for bit")

    accuracy = {}
    for split_name, test in test_splits.items():
        start = perf_counter()
        report = harness.evaluate(params, test)
        op.samples["eval_s"].append(perf_counter() - start)
        op.check(math.isfinite(report.overall_accuracy),
                 f"{name}: {split_name} accuracy {report.overall_accuracy} is not finite")
        accuracy[split_name] = report.overall_accuracy
    return accuracy


def make_splits(seed: int):
    return synthbench.make_benchmark(synthbench.BenchmarkConfig(seed=seed))


class Train:
    name = "train"

    def setup(self, seed, tmp, op):
        return seed, tmp, make_splits(seed)

    def run(self, state, op):
        seed, tmp, (train_split, _, ood_test) = state
        accuracy = train_and_check(train_split, "lpf5", seed, tmp, op, {"ood": ood_test})
        op.values["ood_accuracy"] = accuracy["ood"]


class Grid:
    name = "grid"

    def setup(self, seed, tmp, op):
        return seed, tmp, make_splits(seed)

    def run(self, state, op):
        seed, tmp, (train_split, id_test, ood_test) = state
        ood = {name: train_and_check(train_split, name, seed, tmp, op,
                                     {"id": id_test, "ood": ood_test})["ood"]
               for name in VARIANTS}
        gain = 100.0 * (ood["lpf5"] - ood["ce"])
        op.values["ood_accuracy"] = ood["lpf5"]
        op.values["ood_gain_pts"] = gain
        op.check(gain > 0.0, f"lpf(5) does not beat ce on the shifted split: {gain:+.2f} points")


def run_cli(argv: list[str], op: Op, metric: str) -> None:
    """One ``debiasvqa`` command in-process; its stdout is kept off ours."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = perf_counter()
        code = cli.main(argv)
        op.samples[metric].append(perf_counter() - start)
    op.check(code == 0, f"debiasvqa {argv[0]} exited {code}: {captured.getvalue().strip()}")


class Pipeline:
    name = "pipeline"

    def setup(self, seed, tmp, op):
        train_split, id_test, ood_test = make_splits(seed)
        reference = train_and_check(train_split, "lpf5", seed, tmp, op,
                                    {"id_test": id_test, "ood_test": ood_test})
        return seed, tmp, reference

    def run(self, state, op):
        seed, tmp, reference = state
        out = tmp / "gen"
        run_cli(["gen", "--seed", str(seed), "--out", str(out)], op, "gen_s")
        for name in ("train", "id_test", "ood_test"):
            op.digests[f"{name}.split"] = sha256(out / f"{name}.split")
        for name in ("id_test", "ood_test"):
            report = tmp / f"{name}.report.json"
            run_cli(["eval", str(tmp / "lpf5.ckpt"), str(out / f"{name}.split"),
                     "--out", str(report)], op, "eval_s")
            op.digests[report.name] = sha256(report)
            accuracy = json.loads(report.read_text(encoding="utf-8"))["report"]["overall_accuracy"]
            op.check(math.isfinite(accuracy), f"{name}: accuracy {accuracy} is not finite")
            op.check(accuracy == reference[name],
                     f"{name}: eval reports {accuracy}, in-memory evaluate gave {reference[name]}")
        op.values["ood_accuracy"] = accuracy


WORKLOADS = {w.name: w for w in (Train(), Grid(), Pipeline())}
