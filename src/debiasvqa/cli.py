"""Command-line interface.

Subcommands cover the full pipeline: ``gen`` writes benchmark split
files, ``train`` produces a checkpoint and run log, ``eval`` scores a
checkpoint on a split, ``sweep`` trains one model per gamma and writes a
report, ``report`` converts report files between formats.

Every flag can also come from a ``--config`` file of ``key=value`` lines
(keys named like the flags without the leading dashes; a key may be any
subcommand's flag, and any other key is an error); explicit flags win
over file values.  Exit codes: 0 success, 1 usage error, 2 data or
format error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, DataFormatError, NumericalError, read_text
from .harness import (
    REPORT_FORMAT_VERSION,
    TrainConfig,
    emit_report,
    evaluate,
    load_report,
    sweep_gamma,
    train,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .objectives import LossVariant, VariantKind
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

    def common(p):
        p.add_argument("--config", help="key=value file mirroring the flags; flags override")
        p.add_argument("--out", default=None)

    def training_flags(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("gen", help="generate train/id-test/ood-test split files")
    common(p)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train on a split file, write a checkpoint")
    p.add_argument("split", help="training split file")
    common(p)
    p.add_argument("--variant", choices=[k.value for k in VariantKind], default=None)
    p.add_argument("--gamma", type=float, default=None)
    training_flags(p)

    p = sub.add_parser("eval", help="score a checkpoint on a split file")
    p.add_argument("checkpoint")
    p.add_argument("split")
    common(p)

    p = sub.add_parser("sweep", help="train one model per gamma, write a report")
    p.add_argument("train_split")
    p.add_argument("id_split")
    p.add_argument("ood_split")
    common(p)
    p.add_argument("--gamma", type=float, action="append", default=None,
                   help="repeatable; at least one value required")
    training_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default=None)

    p = sub.add_parser("report", help="convert a json report to csv or json")
    p.add_argument("report")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    return parser


def _config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--flag`` of every subcommand without its dashes, except ``--help`` and ``--config``."""
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag[2:] for p in subcommands.choices.values() for a in p._actions
            if a.dest not in ("help", "config") for flag in a.option_strings}


def load_config_file(path) -> dict[str, str]:
    """Parse ``key=value`` lines; '#' comments and blank lines allowed.

    A key that is not in :func:`_config_keys` is an error, so one file can
    drive several subcommands but a misspelt key is never ignored.
    """
    keys = _config_keys(build_parser())
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise DataFormatError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


class _Options:
    """Flag values resolved against a config file and defaults."""

    def __init__(self, args):
        self.file = load_config_file(args.config) if args.config else {}
        self.args = args

    def get(self, key: str, convert, default):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        if key in self.file:
            try:
                return convert(self.file[key])
            except ValueError as exc:
                raise DataFormatError(f"config key {key!r}: {exc}") from None
        return default


def _variant_from(options: _Options) -> LossVariant:
    name = options.get("variant", str, "ce")
    return LossVariant(name, options.get("gamma", float, 1.0) if name == VariantKind.LPF else 0.0)


def model_config_for(bench: BenchmarkConfig, seed: int) -> ModelConfig:
    """Model sized to a benchmark; non-data dimensions stay at defaults."""
    return ModelConfig(vocab_size=bench.vocab_size,
                       num_answers=bench.num_answers,
                       v_in_dim=bench.v_in_dim,
                       seed=seed)


def _train_config(options: _Options, bench: BenchmarkConfig, variant: LossVariant) -> TrainConfig:
    seed = options.get("seed", int, 0)
    return TrainConfig(
        variant=variant,
        model=model_config_for(bench, seed),
        lr=options.get("lr", float, TrainConfig.lr),
        batch_size=options.get("batch-size", int, TrainConfig.batch_size),
        epochs=options.get("epochs", int, TrainConfig.epochs),
        seed=seed,
    )


def _require_out(options: _Options, parser_hint: str) -> str:
    out = options.get("out", str, None)
    if out is None:
        raise ConfigError(f"{parser_hint} needs --out (or out= in the config file)")
    return out


def _cmd_gen(options: _Options) -> int:
    out_dir = Path(_require_out(options, "gen"))
    splits = make_benchmark(BenchmarkConfig(seed=options.get("seed", int, 0)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in zip(("train", "id_test", "ood_test"), splits):
        save_split(split, out_dir / f"{name}.split")
    print(f"wrote 3 split files under {out_dir}")
    return 0


def _cmd_train(options: _Options) -> int:
    out = _require_out(options, "train")
    split = load_split(options.args.split)
    config = _train_config(options, split.config, _variant_from(options))
    params, log = train(split, config)
    save_checkpoint(params, out)
    log_path = out + ".runlog.json"
    payload = {
        "variant": config.variant.kind.value,
        "gamma": config.variant.gamma,
        "lr": config.lr,
        "batch_size": config.batch_size,
        "epochs": [vars(e) for e in log.epochs],
        "seed": config.seed,
    }
    Path(log_path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                              encoding="utf-8")
    final = log.epochs[-1].train_accuracy if log.epochs else float("nan")
    print(f"wrote {out} and {log_path} (final train accuracy {final:.4f})")
    return 0


def _cmd_eval(options: _Options) -> int:
    params = load_checkpoint(options.args.checkpoint)
    split = load_split(options.args.split)
    report = evaluate(params, split)
    payload = json.dumps({"format_version": REPORT_FORMAT_VERSION,
                          "report": report.to_dict()}, sort_keys=True, indent=2)
    out = options.get("out", str, None)
    if out is None:
        print(payload)
    else:
        Path(out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {out} (accuracy {report.overall_accuracy:.4f})")
    return 0


def _cmd_sweep(options: _Options) -> int:
    out = _require_out(options, "sweep")
    gammas = options.get("gamma", lambda text: [float(g) for g in text.split(",") if g.strip()], [])
    if not gammas:
        raise ConfigError("sweep needs at least one --gamma (or gamma= in the config file)")
    args = options.args
    splits = tuple(load_split(path) for path in (args.train_split, args.id_split, args.ood_split))
    base = _train_config(options, splits[0].config, LossVariant.ce())  # each gamma replaces it
    rows = sweep_gamma(gammas, base, splits)
    fmt = options.get("format", str, "json")
    emit_report(rows, out, format=fmt)
    print(f"wrote {out} ({len(rows)} gamma rows, format {fmt})")
    return 0


def _cmd_report(options: _Options) -> int:
    out = _require_out(options, "report")
    rows = load_report(options.args.report)
    fmt = options.get("format", str, "csv")
    emit_report(rows, out, format=fmt)
    print(f"wrote {out} ({len(rows)} gamma rows, format {fmt})")
    return 0


_COMMANDS = {"gen": _cmd_gen, "train": _cmd_train, "eval": _cmd_eval,
             "sweep": _cmd_sweep, "report": _cmd_report}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](_Options(args))
    except (ValueError, OSError) as exc:  # ConfigError and DataFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
