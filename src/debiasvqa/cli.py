"""Command-line interface.

Subcommands cover the full pipeline: ``gen`` writes benchmark split
files, ``train`` produces a checkpoint and run log, ``eval`` scores a
checkpoint on a split, ``sweep`` trains one model per gamma and writes a
json report.

:func:`build_parser` declares each flag's type, choices and default
once.  Exit codes: 0 success, 1 usage error, 2 data or format error,
3 numerical failure, 141 stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, NumericalError
from .harness import (
    REPORT_FORMAT_VERSION,
    TrainConfig,
    emit_report,
    evaluate,
    sweep_gamma,
    train,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .objectives import VARIANT_GAMMAS, LossVariant
from .synthbench import BenchmarkConfig, load_split, make_benchmark, save_split


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="debiasvqa",
                     description="Bias-aware VQA training on a synthetic changing-priors benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    def training_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lr", type=float, default=TrainConfig.lr)
        p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs)

    p = sub.add_parser("gen", help="generate train/id-test/ood-test split files")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train on a split file, write a checkpoint")
    p.add_argument("split", help="training split file")
    p.add_argument("--out")
    p.add_argument("--variant", choices=list(VARIANT_GAMMAS), default="ce")
    p.add_argument("--gamma", type=float, default=1.0, help="lpf only; " + ", ".join(
        f"{kind} uses {gamma:g}" for kind, gamma in VARIANT_GAMMAS.items() if gamma is not None))
    training_flags(p)

    p = sub.add_parser("eval", help="score a checkpoint on a split file")
    p.add_argument("checkpoint")
    p.add_argument("split")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="train one model per gamma, write a report")
    p.add_argument("train_split")
    p.add_argument("id_split")
    p.add_argument("ood_split")
    p.add_argument("--out")
    p.add_argument("--gamma", type=float, action="append", default=[],
                   help="repeatable; one run per value")
    training_flags(p)
    return parser


def model_config_for(bench: BenchmarkConfig, seed: int) -> ModelConfig:
    """Model sized to a benchmark; non-data dimensions stay at defaults."""
    return ModelConfig(vocab_size=bench.vocab_size,
                       num_answers=bench.num_answers,
                       v_in_dim=bench.v_in_dim,
                       seed=seed)


def _train_config(args, bench: BenchmarkConfig, variant: LossVariant) -> TrainConfig:
    return TrainConfig(variant=variant, model=model_config_for(bench, args.seed), lr=args.lr,
                       batch_size=args.batch_size, epochs=args.epochs, seed=args.seed)


def _cmd_gen(args) -> int:
    out_dir = Path(args.out)
    splits = make_benchmark(BenchmarkConfig(seed=args.seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in zip(("train", "id_test", "ood_test"), splits):
        save_split(split, out_dir / f"{name}.split")
    print(f"wrote 3 split files under {out_dir}")
    return 0


def _cmd_train(args) -> int:
    split = load_split(args.split)
    config = _train_config(args, split.config, LossVariant(args.variant, args.gamma))
    params, log = train(split, config)
    save_checkpoint(params, args.out)
    log_path = args.out + ".runlog.json"
    payload = {
        "variant": config.variant.kind,
        "gamma": config.variant.gamma,
        "lr": config.lr,
        "batch_size": config.batch_size,
        "epochs": [vars(e) for e in log],
        "seed": config.seed,
    }
    Path(log_path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                              encoding="utf-8")
    result = f"final train accuracy {log[-1].train_accuracy:.4f}" if log else "no epoch ran"
    print(f"wrote {args.out} and {log_path} ({result})")
    return 0


def _cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    split = load_split(args.split)
    report = evaluate(params, split)
    payload = json.dumps({"format_version": REPORT_FORMAT_VERSION,
                          "report": report.to_dict()}, sort_keys=True, indent=2)
    if args.out is None:
        print(payload)
    else:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.out} (accuracy {report.overall_accuracy:.4f})")
    return 0


def _cmd_sweep(args) -> int:
    splits = tuple(load_split(path) for path in (args.train_split, args.id_split, args.ood_split))
    base = _train_config(args, splits[0].config, LossVariant.ce())  # each gamma replaces it
    rows = sweep_gamma(args.gamma, base, splits)
    emit_report(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} gamma rows)")
    return 0


_COMMANDS = {"gen": _cmd_gen, "train": _cmd_train, "eval": _cmd_eval, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.out is None and args.command != "eval":
            raise ConfigError(f"{args.command} needs --out")
        if args.out is not None and args.command != "gen":  # gen makes its directory
            out = Path(args.out)
            if out.is_dir() or not out.parent.is_dir():  # else the write fails after the work
                raise ConfigError(f"--out {out} is a directory" if out.is_dir()
                                  else f"--out {out}: no directory {out.parent}")
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed reader shows here, not in the exit-time flush
        return code
    except BrokenPipeError:  # stdout's reader is gone: exit as SIGPIPE would, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # ConfigError and DataFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
