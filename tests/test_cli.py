"""End-to-end CLI pipeline and exit-code contract."""
import argparse
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import toy_benchmark_config
from debiasvqa import (VARIANT_GAMMAS, BenchmarkConfig, NumericalError, Split, Tensor, cli,
                       harness)
from debiasvqa.cli import build_parser, main
from debiasvqa.harness import REPORT_FORMAT_VERSION, evaluate
from debiasvqa.model import load_checkpoint, save_checkpoint
from debiasvqa.synthbench import load_split, make_benchmark, save_split


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen + train once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen", "--out", str(root), "--seed", "0"]) == 0
    ckpt = root / "model.ckpt"
    assert main(["train", str(root / "train.split"), "--out", str(ckpt),
                 "--variant", "lpf", "--gamma", "2", "--epochs", "2"]) == 0
    return root


def test_gen_writes_three_splits(pipeline):
    for name in ("train.split", "id_test.split", "ood_test.split"):
        assert (pipeline / name).exists()


def test_train_writes_checkpoint_and_runlog(pipeline):
    assert (pipeline / "model.ckpt").exists()
    log = json.loads((pipeline / "model.ckpt.runlog.json").read_text())
    assert log["variant"] == "lpf" and log["gamma"] == 2.0
    assert len(log["epochs"]) == 2
    assert 0.0 <= log["epochs"][-1]["train_accuracy"] <= 1.0


def test_train_zero_epochs_says_no_epoch_ran(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "zero.ckpt"
    assert main(["train", str(pipeline / "train.split"), "--epochs", "0",
                 "--out", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "no epoch ran" in out and "nan" not in out
    assert json.loads((tmp_path / "zero.ckpt.runlog.json").read_text())["epochs"] == []


def test_eval_to_file(pipeline):
    out = pipeline / "eval.json"
    rc = main(["eval", str(pipeline / "model.ckpt"),
               str(pipeline / "ood_test.split"), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["sample_count"] == 4000


def test_eval_to_stdout(pipeline, capsys):
    rc = main(["eval", str(pipeline / "model.ckpt"), str(pipeline / "id_test.split")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "report" in payload and "format_version" in payload


def test_eval_payload_is_the_evaluate_report(pipeline, capsys):
    assert main(["eval", str(pipeline / "model.ckpt"), str(pipeline / "ood_test.split")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format_version"] == REPORT_FORMAT_VERSION
    want = evaluate(load_checkpoint(pipeline / "model.ckpt"), load_split(pipeline / "ood_test.split"))
    assert payload["report"] == want.to_dict()
    assert payload["report"]["kl_to_train_prior"] is None  # eval is given no train priors


def test_sweep_then_report(pipeline, capsys):
    report = pipeline / "report.json"
    rc = main(["sweep", str(pipeline / "train.split"), str(pipeline / "id_test.split"),
               str(pipeline / "ood_test.split"), "--gamma", "0", "--gamma", "2",
               "--epochs", "1", "--out", str(report)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {report} (2 gamma rows)\n"
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["format_version"] == harness.REPORT_FORMAT_VERSION
    assert [row["gamma"] for row in payload["rows"]] == [0.0, 2.0]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["train"]) == 1
    assert main(["gen", "--bogus"]) == 1
    assert main(["sweep", "t.split", "i.split", "o.split", "--format", "csv"]) == 1
    assert main(["train", "t.split", "--config", "x.cfg"]) == 1
    assert main(["report", "x.json"]) == 1  # no such subcommand
    err = capsys.readouterr().err
    assert "unrecognized arguments: --format csv" in err
    assert "unrecognized arguments: --config x.cfg" in err
    assert "invalid choice: 'report'" in err


def test_only_gen_train_and_sweep_take_a_seed(capsys):
    assert main(["eval", "m.ckpt", "x.split", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_missing_out_exits_two(tmp_path, capsys):
    assert main(["gen"]) == 2
    assert "out" in capsys.readouterr().err


def test_malformed_split_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.split"
    bad.write_text("not json\n")
    rc = main(["train", str(bad), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["eval", str(tmp_path / "nope.ckpt"), str(tmp_path / "nope.split")])
    assert rc == 2
    capsys.readouterr()


_CONSOLE_SCRIPT = ("-c", "import sys; from debiasvqa.cli import main; sys.exit(main())")


def _run_with_closed_stdout(argv, unbuffered="", launcher=("-m", "debiasvqa.cli")):
    """Run the CLI in a child whose stdout reader is gone; its exit code and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, *launcher, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # before the child is done importing, so its first write fails
        err = proc.stderr.read()
    return proc.returncode, err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(pipeline, unbuffered):
    """A reader that closes stdout early (``| head``, ``| true``) stops the run as
    SIGPIPE would, not as a data error, and the exit-time flush stays quiet."""
    argv = ["eval", str(pipeline / "model.ckpt"), str(pipeline / "ood_test.split")]
    assert _run_with_closed_stdout(argv, unbuffered) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_through_a_console_script(pipeline, unbuffered):
    """The installed ``debiasvqa`` script calls ``sys.exit(main())``, not ``-m``."""
    argv = ["eval", str(pipeline / "model.ckpt"), str(pipeline / "ood_test.split")]
    assert _run_with_closed_stdout(argv, unbuffered, _CONSOLE_SCRIPT) == (141, b"")


# per command: its argv given the pipeline and an output directory, and the
# files it writes there before it prints its one line
_WRITERS = {
    "gen": (lambda root, out: ["gen", "--out", str(out), "--seed", "0"],
            ["train.split", "id_test.split", "ood_test.split"]),
    "train": (lambda root, out: ["train", str(root / "train.split"), "--out", str(out / "m.ckpt"),
                                 "--variant", "lpf", "--gamma", "2", "--epochs", "1"],
              ["m.ckpt", "m.ckpt.runlog.json"]),
    "eval": (lambda root, out: ["eval", str(root / "model.ckpt"), str(root / "ood_test.split"),
                                "--out", str(out / "eval.json")],
             ["eval.json"]),
    "sweep": (lambda root, out: ["sweep", *(str(root / f"{name}.split")
                                            for name in ("train", "id_test", "ood_test")),
                                 "--gamma", "0", "--epochs", "1", "--out", str(out / "r.json")],
              ["r.json"]),
}


@pytest.mark.parametrize("command", _WRITERS)
def test_closed_stdout_after_writing_keeps_the_files_whole(pipeline, tmp_path, capsys, command):
    """Every command writes its files before its line to stdout, so a closed
    reader costs the line only: the files match those of a run with a reader."""
    argv_for, names = _WRITERS[command]
    piped, reference = tmp_path / "piped", tmp_path / "reference"
    piped.mkdir()
    reference.mkdir()
    assert _run_with_closed_stdout(argv_for(pipeline, piped)) == (141, b"")
    assert main(argv_for(pipeline, reference)) == 0
    assert capsys.readouterr().out.startswith("wrote ")
    for name in names:
        assert (piped / name).read_bytes() == (reference / name).read_bytes(), name


@pytest.mark.parametrize("flags", [["--format", "json"], ["--format", "csv"], ["--format=json"]],
                         ids=["json", "csv", "equals-json"])
def test_sweep_format_flag_is_an_unknown_argument(monkeypatch, tmp_path, capsys, flags):
    """The sweep report is json only: any ``--format`` stops the run before any work."""
    monkeypatch.setitem(cli._COMMANDS, "sweep", _never)
    out = tmp_path / "r.json"
    rc = main(["sweep", "t.split", "i.split", "o.split", "--gamma", "0", *flags,
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: unrecognized arguments: {' '.join(flags)}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_without_gamma_exits_two(pipeline, capsys):
    rc = main(["sweep", str(pipeline / "train.split"), str(pipeline / "id_test.split"),
               str(pipeline / "ood_test.split"), "--out", str(pipeline / "r2.json")])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err


def test_numerical_failure_exits_three(pipeline, tmp_path, monkeypatch, capsys):
    def explode(split, config, record_hook=None):
        raise NumericalError("non-finite loss")
    monkeypatch.setattr("debiasvqa.cli.train", explode)
    rc = main(["train", str(pipeline / "train.split"),
               "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    assert rc == 3
    assert "numerical" in capsys.readouterr().err


def test_loss_past_float_range_exits_three(pipeline, tmp_path, monkeypatch, capsys):
    """Finite question-only logits that span more than DBL_MAX give an
    infinite loss, which the loss guard reports without a numpy warning."""
    real_forward = harness.forward_batch

    def spanning(params, tokens, features):
        logits_vqa, logits_qo = real_forward(params, tokens, features)
        wide = np.zeros_like(logits_qo.data)
        wide[:, 0], wide[:, 1] = 1e308, -1e308
        return logits_vqa, Tensor(wide)
    monkeypatch.setattr(harness, "forward_batch", spanning)
    out = tmp_path / "m.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", str(pipeline / "train.split"), "--out", str(out), "--epochs", "1"])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: non-finite loss inf at epoch 0, step 0\n"
    assert not out.exists()


def test_non_finite_parameter_exits_three(pipeline, tmp_path, monkeypatch, capsys):
    real_step = harness.adam_step

    def poisoned_step(params, lr):
        for p in params:
            p.grad[0] = np.nan
        real_step(params, lr)
    monkeypatch.setattr(harness, "adam_step", poisoned_step)
    rc = main(["train", str(pipeline / "train.split"),
               "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    assert rc == 3
    assert "non-finite parameter" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def _rewrite_split(src, dst, edit_header=None, edit_line=None):
    """Copy a split file, editing its header dict or its third line."""
    lines = src.read_text().splitlines()
    header = json.loads(lines[0])
    if edit_header is not None:
        edit_header(header)
    lines[0] = json.dumps(header, sort_keys=True)
    if edit_line is not None:
        lines[2] = edit_line(lines[2])
    dst.write_text("\n".join(lines) + "\n")
    return dst


def test_wrong_size_prior_table_exits_two(pipeline, tmp_path, capsys):
    bad = _rewrite_split(pipeline / "id_test.split", tmp_path / "bad.split",
                         edit_header=lambda h: h["priors"].pop())
    rc = main(["eval", str(pipeline / "model.ckpt"), str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "prior table shape (7, 40), expected (8, 40)" in err
    assert err.count("\n") == 1


def test_nan_prior_table_exits_two(pipeline, tmp_path, capsys):
    bad = _rewrite_split(pipeline / "id_test.split", tmp_path / "bad.split",
                         edit_header=lambda h: h["priors"][3].__setitem__(0, "nan"))
    assert main(["eval", str(pipeline / "model.ckpt"), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1: bad prior table: prior table has negative or NaN entries" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("noise_std", math.nan), ("zipf_s", math.inf),
                                        ("prototype_scale", math.inf)])
def test_non_finite_header_config_exits_two(pipeline, tmp_path, capsys, key, value):
    def corrupt(header):  # refit the fingerprint without building the config it refuses
        header["config"][key] = value
        header["fingerprint"] = BenchmarkConfig.fingerprint(SimpleNamespace(**header["config"]))
    bad = _rewrite_split(pipeline / "id_test.split", tmp_path / "bad.split", edit_header=corrupt)
    assert main(["eval", str(pipeline / "model.ckpt"), str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"line 1: bad config: {key} must be finite, got {value}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_feature_exits_two(pipeline, tmp_path, capsys, value):
    def corrupt(line):
        fields = line.split()
        fields[-1] = value
        return " ".join(fields)
    bad = _rewrite_split(pipeline / "id_test.split", tmp_path / "bad.split", edit_line=corrupt)
    for argv in (["eval", str(pipeline / "model.ckpt"), str(bad)],
                 ["train", str(bad), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "line 3: non-finite visual feature" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


def _edit_field(index, edit):
    """Line edit for _rewrite_split: rewrite one whitespace-separated field."""
    def edit_line(line):
        fields = line.split()
        fields[index] = str(edit(int(fields[index])))
        return " ".join(fields)
    return edit_line


@pytest.mark.parametrize("edits, message", [
    # default config: 4 tokens per question, 5 answers per question type
    ({"edit_line": _edit_field(1, lambda t: (t + 4) % 32)},
     "line 3: tokens are not their question type's template"),
    ({"edit_line": _edit_field(5, lambda a: (a + 5) % 40)},
     "line 3: answer outside its question type's block"),
    ({"edit_header": lambda h: h["config"].update(seed=1)},
     "line 1: fingerprint"),
    ({"edit_header": lambda h: h["config"].update(v_in_dim=16.0)},
     "line 1: bad config: v_in_dim must be an integer, got 16.0"),
    # reversed, question type 2's row keeps its sum but moves to answers 25-29
    ({"edit_header": lambda h: h["priors"][2].reverse()},
     "line 1: prior row of question type 2 puts mass outside its answer block"),
], ids=["template", "block", "fingerprint", "float-dim", "off-block-prior"])
def test_split_contract_violation_exits_two(pipeline, tmp_path, capsys, edits, message):
    bad = _rewrite_split(pipeline / "id_test.split", tmp_path / "bad.split", **edits)
    for argv in (["eval", str(pipeline / "model.ckpt"), str(bad)],
                 ["train", str(bad), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


def test_oversized_split_dims_exit_two(pipeline, tmp_path, capsys):
    def oversize(header):
        header["config"]["v_in_dim"] = 10 ** 12
        header["fingerprint"] = BenchmarkConfig(**header["config"]).fingerprint()
    bad = _rewrite_split(pipeline / "id_test.split", tmp_path / "bad.split",
                         edit_header=oversize)
    assert main(["eval", str(pipeline / "model.ckpt"), str(bad)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_train_on_empty_split_exits_two(pipeline, tmp_path, capsys):
    empty = tmp_path / "empty.split"
    empty.write_text((pipeline / "train.split").read_text().splitlines()[0] + "\n")
    rc = main(["train", str(empty), "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "empty split" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval-checkpoint", "eval-split",
                                     "train-out", "eval-out", "sweep-out"])
def test_directory_path_exits_two(pipeline, tmp_path, capsys, command):
    """A directory where a file is read or written is a data error, not a closed stdout."""
    splits = [str(pipeline / f"{name}.split") for name in ("train", "id_test", "ood_test")]
    argv = {"train": ["train", str(tmp_path), "--out", str(tmp_path / "m.ckpt")],
            "eval-checkpoint": ["eval", str(tmp_path), str(pipeline / "id_test.split")],
            "eval-split": ["eval", str(pipeline / "model.ckpt"), str(tmp_path)],
            "train-out": ["train", splits[0], "--epochs", "1", "--out", str(tmp_path)],
            "eval-out": ["eval", str(pipeline / "model.ckpt"), splits[2], "--out", str(tmp_path)],
            "sweep-out": ["sweep", *splits, "--gamma", "0", "--epochs", "1",
                          "--out", str(tmp_path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "directory" in err.lower()
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--variant", "lpf", "--gamma", "nan"], "gamma must be finite"),
    ("train", ["--variant", "lpf", "--gamma", "inf"], "gamma must be finite"),
    ("train", ["--lr", "nan"], "lr must be finite"),
    ("train", ["--lr", "inf"], "lr must be finite"),
    ("sweep", ["--gamma", "1", "--gamma", "nan"], "gamma must be finite"),
    ("sweep", ["--gamma", "1", "--lr", "inf"], "lr must be finite"),
], ids=["train-gamma-nan", "train-gamma-inf", "train-lr-nan", "train-lr-inf",
        "sweep-gamma-nan", "sweep-lr-inf"])
def test_non_finite_hyperparameter_exits_two(pipeline, tmp_path, capsys, command, flags, message):
    out = tmp_path / "out"
    splits = {"train": ["train.split"],
              "sweep": ["train.split", "id_test.split", "ood_test.split"]}[command]
    rc = main([command, *(str(pipeline / name) for name in splits), "--out", str(out),
               "--epochs", "1", *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()


def _rewrite_checkpoint_config(src, dst, **changes):
    """Copy a checkpoint with some of its header config values replaced."""
    blob = src.read_bytes()
    (size,) = struct.unpack("<I", blob[12:16])  # after the magic and the version
    config = json.loads(blob[16:16 + size])
    config.update(changes)
    raw = json.dumps(config, sort_keys=True).encode()
    dst.write_bytes(blob[:12] + struct.pack("<I", len(raw)) + raw + blob[16 + size:])
    return dst


@pytest.mark.parametrize("changes, message", [
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"vocab_size": 32.5}, "vocab_size must be an integer, got 32.5"),
    ({"embed_dim": True}, "embed_dim must be an integer, got True"),
], ids=["seed-string", "vocab-float", "embed-bool"])
def test_checkpoint_config_types_exit_two(pipeline, tmp_path, capsys, changes, message):
    bad = _rewrite_checkpoint_config(pipeline / "model.ckpt", tmp_path / "bad.ckpt", **changes)
    assert main(["eval", str(bad), str(pipeline / "id_test.split")]) == 2
    err = capsys.readouterr().err
    assert f"bad checkpoint config in {bad}: {message}" in err
    assert err.count("\n") == 1


def test_checkpoint_config_dim_past_int64_exits_two(pipeline, tmp_path, capsys):
    bad = _rewrite_checkpoint_config(pipeline / "model.ckpt", tmp_path / "bad.ckpt",
                                     vocab_size=2 ** 63)  # no int64 tensor header can hold it
    assert main(["eval", str(bad), str(pipeline / "id_test.split")]) == 2
    err = capsys.readouterr().err
    assert f"bad checkpoint config in {bad}" in err
    assert err.count("\n") == 1


def test_non_finite_checkpoint_parameter_exits_two(pipeline, tmp_path, capsys):
    params = load_checkpoint(pipeline / "model.ckpt")
    params["fuse_w2"].data[3, 1] = np.nan
    save_checkpoint(params, tmp_path / "nan.ckpt")
    assert main(["eval", str(tmp_path / "nan.ckpt"), str(pipeline / "ood_test.split")]) == 2
    err = capsys.readouterr().err
    assert f"non-finite parameter value in checkpoint {tmp_path / 'nan.ckpt'}" in err
    assert err.count("\n") == 1


def test_overflowing_forward_pass_exits_three(pipeline, tmp_path, capsys):
    params = load_checkpoint(pipeline / "model.ckpt")
    params["token_embeddings"].data[...] = 1e308  # finite, so the checkpoint is well-formed
    save_checkpoint(params, tmp_path / "huge.ckpt")
    assert main(["eval", str(tmp_path / "huge.ckpt"), str(pipeline / "id_test.split")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: the forward pass gives non-finite logits" in err
    assert err.count("\n") == 1


def test_overflowing_learning_rate_exits_three(tmp_path, capsys):
    # a finite step of about 1e100 passes the parameter check, then the next forward overflows
    save_split(make_benchmark(toy_benchmark_config())[0], tmp_path / "train.split")
    rc = main(["train", str(tmp_path / "train.split"), "--out", str(tmp_path / "m.ckpt"),
               "--variant", "lpf", "--gamma", "5", "--batch-size", "16", "--lr", "1e100"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite logits at epoch 0, step 1\n"
    assert not (tmp_path / "m.ckpt").exists()


def _with_byte_e6(path, dst, lineno):
    """A copy of ``path`` whose line ``lineno`` starts with the lone byte 0xe6."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = b"\xe6" + lines[lineno - 1]
    dst.write_bytes(b"\n".join(lines))
    return dst


@pytest.mark.parametrize("command", ["eval", "train", "sweep"])
def test_non_utf8_file_exits_two_naming_file_and_line(pipeline, tmp_path, capsys, command):
    bad = _with_byte_e6(pipeline / "ood_test.split", tmp_path / "bad.split", 3)
    good = [str(pipeline / name) for name in ("train.split", "id_test.split")]
    out = tmp_path / "out"
    argv = {"eval": ["eval", str(pipeline / "model.ckpt"), str(bad)],
            "train": ["train", str(bad), "--out", str(out)],
            "sweep": ["sweep", *good, str(bad), "--gamma", "1", "--out", str(out)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 3: not UTF-8 text" in err
    assert err.count("\n") == 1
    assert not out.exists()


def _never(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


# ---------------------------------------------------------------------------
# one declaration per flag: each flag reads its text through its own type
# and choices, and an unreadable text stops the run before any work
# ---------------------------------------------------------------------------

SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
FLAGS = {(command, a.option_strings[-1][2:]): a for command, p in SUBCOMMANDS.items()
         for a in p._actions if a.option_strings and a.dest != "help"}


def _texts(action):
    """A text the flag reads to a value other than its default, a second text it
    reads, and one it cannot read (None when it reads any text)."""
    if action.choices is not None:
        first = next(c for c in action.choices if c != action.default)
        return first, next(c for c in action.choices if c != first), "bogus"
    return {int: ("7", "9", "1.5"), float: ("0.5", "0.25", "x"),
            None: ("a.out", "b.out", None)}[action.type]


def _read(action, texts):
    """What ``action`` should hand its command after reading ``texts`` in order."""
    values = [action.type(t) if action.type else t for t in texts]
    return values if isinstance(action, argparse._AppendAction) else values[-1]


def _resolve(monkeypatch, command, key, flags):
    """The arguments ``command`` runs with; the command itself is replaced."""
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(vars(args)) or 0)
    positionals = [a.dest for a in SUBCOMMANDS[command]._actions if not a.option_strings]
    out = [] if key == "out" else ["--out", "o"]
    assert main([command, *positionals, *flags, *out]) == 0
    return seen[0]


def _as_flags(key, texts):
    return [arg for text in texts for arg in (f"--{key}", text)]


def test_every_subcommand_flag_is_covered():
    assert sorted(FLAGS) == sorted(
        [("gen", k) for k in ("out", "seed")]
        + [("train", k) for k in ("out", "variant", "gamma", "seed", "lr", "batch-size", "epochs")]
        + [("eval", "out")]
        + [("sweep", k) for k in ("out", "gamma", "seed", "lr", "batch-size", "epochs")])


@pytest.mark.parametrize("command, key", FLAGS)
def test_flag_value_reaches_its_command(monkeypatch, command, key):
    action = FLAGS[command, key]
    first, _, _ = _texts(action)
    args = _resolve(monkeypatch, command, key, _as_flags(key, [first]))
    assert args[action.dest] == _read(action, [first]) != action.default


@pytest.mark.parametrize("command, key", FLAGS)
def test_repeated_flag_keeps_the_last_value_or_appends(monkeypatch, command, key):
    action = FLAGS[command, key]
    first, second, _ = _texts(action)
    args = _resolve(monkeypatch, command, key, _as_flags(key, [first, second]))
    assert args[action.dest] == _read(action, [first, second])


@pytest.mark.parametrize("command, key", [case for case, action in FLAGS.items()
                                          if _texts(action)[2] is not None])
def test_unreadable_flag_value_exits_one_before_any_work(monkeypatch, tmp_path, capsys,
                                                         command, key):
    monkeypatch.setitem(cli._COMMANDS, command, _never)
    out = tmp_path / "out"
    positionals = [a.dest for a in SUBCOMMANDS[command]._actions if not a.option_strings]
    rc = main([command, *positionals, *_as_flags(key, [_texts(FLAGS[command, key])[2]]),
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: argument --{key}: invalid " in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_variant_outside_choices_names_the_choices(tmp_path, capsys):
    assert main(["train", "t.split", "--variant", "bogus", "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "debiasvqa train: error: argument --variant: invalid choice: 'bogus' "
        "(choose from 'ce', 'lpf', 'focal', 'precomputed')")
    assert not (tmp_path / "m").exists()


def test_variant_choices_and_gamma_help_come_from_the_variant_table():
    assert FLAGS["train", "variant"].choices == list(VARIANT_GAMMAS)
    help_text = FLAGS["train", "gamma"].help
    assert help_text == "lpf only; ce uses 0, focal uses 1, precomputed uses 1"
    assert all(f"{kind} uses {gamma:g}" in help_text
               for kind, gamma in VARIANT_GAMMAS.items() if gamma is not None)


@pytest.mark.parametrize("variant", ["ce", "focal", "precomputed"])
def test_train_reads_gamma_for_every_variant(pipeline, tmp_path, capsys, variant):
    """ce runs at gamma 0 and focal and precomputed at 1, but a gamma they
    ignore must still be a finite one."""
    out = tmp_path / "m.ckpt"
    assert main(["train", str(pipeline / "train.split"), "--variant", variant,
                 "--out", str(out), "--gamma", "nan"]) == 2
    err = capsys.readouterr().err
    assert "gamma must be finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_sweep_over_splits_of_another_shape_exits_two_before_training(tmp_path, monkeypatch,
                                                                      capsys):
    one_qtype = BenchmarkConfig(num_qtypes=1, answers_per_qtype=4, tokens_per_question=4,
                                v_in_dim=4, n_train=64, n_test=32)  # same dims, one qtype
    paths = [tmp_path / f"{name}.split" for name in ("train", "id_test", "ood_test")]
    save_split(make_benchmark(one_qtype)[0], paths[0])
    for split, path in zip(make_benchmark(toy_benchmark_config())[1:], paths[1:]):
        save_split(split, path)
    monkeypatch.setattr(harness, "train", _never)
    out = tmp_path / "r.json"
    assert main(["sweep", *map(str, paths), "--gamma", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the in-distribution test split has num_qtypes 2, the train split has 1" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("role", ["train", "id", "ood"])
def test_sweep_whose_test_split_lacks_a_question_type_exits_two_before_training(
        tmp_path, monkeypatch, capsys, role):
    """The message names the split at fault, train split included."""
    splits = list(make_benchmark(toy_benchmark_config()))
    i, label = {"train": (0, "train"), "id": (1, "in-distribution test"),
                "ood": (2, "shifted test")}[role]
    keep = splits[i].qtypes != 0
    splits[i] = Split(splits[i].answers[keep], splits[i].features[keep], splits[i].priors,
                      splits[i].role, splits[i].config)
    paths = [tmp_path / f"{name}.split" for name in ("train", "id_test", "ood_test")]
    for split, path in zip(splits, paths):
        save_split(split, path)
    monkeypatch.setattr(harness, "train", _never)
    out = tmp_path / "r.json"
    assert main(["sweep", *map(str, paths), "--gamma", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: the {label} split: "
                                       "split has no samples for question type 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_two_before_any_work(tmp_path, monkeypatch, capsys, command, where):
    """An --out that is a directory, or sits in a missing one, fails before the
    command reads any file or trains."""
    monkeypatch.setitem(cli._COMMANDS, command, _never)
    out = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
    positionals = [a.dest for a in SUBCOMMANDS[command]._actions if not a.option_strings]
    gammas = ["--gamma", "1"] if command == "sweep" else []
    assert main([command, *positionals, *gammas, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: --out {out}: no directory {out.parent}\n"
                                       if where == "missing-directory"
                                       else f"error: --out {out} is a directory\n")
    assert list(tmp_path.iterdir()) == []
    assert not Path(f"{out}.runlog.json").exists()
