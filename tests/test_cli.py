"""End-to-end CLI pipeline and exit-code contract."""
import json
import struct

import numpy as np
import pytest

from debiasvqa import BenchmarkConfig, NumericalError, harness, load_report
from debiasvqa.cli import load_config_file, main
from debiasvqa.errors import DataFormatError
from debiasvqa.harness import REPORT_CSV_COLUMNS
from debiasvqa.model import load_checkpoint, save_checkpoint


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


def test_sweep_then_report(pipeline):
    report = pipeline / "report.json"
    rc = main(["sweep", str(pipeline / "train.split"), str(pipeline / "id_test.split"),
               str(pipeline / "ood_test.split"), "--gamma", "0", "--gamma", "2",
               "--epochs", "1", "--out", str(report)])
    assert rc == 0
    rows = load_report(report)
    assert [r.gamma for r in rows] == [0.0, 2.0]

    csv_out = pipeline / "report.csv"
    assert main(["report", str(report), "--out", str(csv_out)]) == 0
    header = csv_out.read_text().splitlines()[0]
    assert tuple(header.split(",")) == REPORT_CSV_COLUMNS


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["train"]) == 1
    assert main(["gen", "--bogus"]) == 1
    assert main(["report", "x.json", "--format", "xml"]) == 1
    capsys.readouterr()


def test_only_gen_train_and_sweep_take_a_seed(capsys):
    assert main(["eval", "m.ckpt", "x.split", "--seed", "1"]) == 1
    assert main(["report", "x.json", "--seed", "1"]) == 1
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
], ids=["template", "block", "fingerprint", "float-dim"])
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


@pytest.mark.parametrize("command", ["train", "eval-checkpoint", "eval-split"])
def test_directory_path_exits_two(pipeline, tmp_path, capsys, command):
    argv = {"train": ["train", str(tmp_path), "--out", str(tmp_path / "m.ckpt")],
            "eval-checkpoint": ["eval", str(tmp_path), str(pipeline / "id_test.split")],
            "eval-split": ["eval", str(pipeline / "model.ckpt"), str(tmp_path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "directory" in err.lower()
    assert err.count("\n") == 1


# one row side of a valid report: two question types, two answers
_REPORT_SIDE = {"overall_accuracy": 0.5, "per_qtype_accuracy": [0.5, 0.5],
                "per_qtype_counts": [2, 2], "predicted_distribution": [[0.5, 0.5], [0.5, 0.5]],
                "kl_to_split_prior": [0.0, 0.0], "kl_to_train_prior": None, "sample_count": 4}


def _report_row(**ood_changes):
    return {"gamma": 1.0, "id": _REPORT_SIDE, "ood": {**_REPORT_SIDE, **ood_changes}}


@pytest.mark.parametrize("rows, message", [
    ([{"gamma": 1}], "missing key 'id'"),
    ([{"gamma": "x", "id": {}, "ood": {}}], "could not convert string to float"),
    ([3], "bad report row"),
    ([_report_row(per_qtype_accuracy="high")], "could not convert string to float"),
    ([_report_row(predicted_distribution=[0.5])], "must have 2 dimension(s)"),
    ([_report_row(sample_count=None)], "bad report row"),
], ids=["missing-key", "bad-gamma", "row-not-object", "string-array", "flat-distribution",
        "null-count"])
def test_malformed_report_exits_two(tmp_path, capsys, rows, message):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"format_version": 1, "rows": [_report_row()]}))
    assert main(["report", str(good), "--out", str(tmp_path / "r.csv")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "rows": rows}))
    capsys.readouterr()
    assert main(["report", str(bad), "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("row, raw, message", [
    (_report_row(sample_count="@"), "1e400", "'sample_count' has a non-finite value"),
    (_report_row(sample_count="@"), "4.5", "'sample_count' must hold integers"),
    (_report_row(per_qtype_counts="@"), "[2, 1e19]", "'per_qtype_counts' must hold integers"),
    (_report_row(overall_accuracy="@"), "NaN", "'overall_accuracy' has a non-finite value"),
    (_report_row(kl_to_split_prior="@"), "[0.0, -Infinity]", "'kl_to_split_prior' has a non-finite"),
    ({**_report_row(), "gamma": "@"}, "Infinity", "'gamma' has a non-finite value"),
], ids=["count-1e400", "count-fraction", "counts-1e19", "accuracy-nan", "kl-inf", "gamma-inf"])
def test_non_finite_or_fractional_report_number_exits_two(tmp_path, capsys, row, raw, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "rows": [row]}).replace('"@"', raw))
    assert main(["report", str(bad), "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("payload", [{"format_version": 1}, {"format_version": 1, "rows": {}}],
                         ids=["no-rows", "rows-not-list"])
def test_report_without_row_list_exits_two(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["report", str(bad), "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "not a report file" in err and "row" not in err.replace(str(bad), "")
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


def test_non_finite_checkpoint_parameter_exits_two(pipeline, tmp_path, capsys):
    params = load_checkpoint(pipeline / "model.ckpt")
    params["fuse_w2"].data[3, 1] = np.nan
    save_checkpoint(params, tmp_path / "nan.ckpt")
    assert main(["eval", str(tmp_path / "nan.ckpt"), str(pipeline / "ood_test.split")]) == 2
    err = capsys.readouterr().err
    assert f"non-finite parameter value in checkpoint {tmp_path / 'nan.ckpt'}" in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nepochs = 3\nvariant=lpf  # inline\ngamma=2.5\n")
    assert load_config_file(cfg) == {"epochs": "3", "variant": "lpf", "gamma": "2.5"}


def test_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_config_file(cfg)


def test_config_file_drives_training(pipeline, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("variant=lpf\ngamma=3.0\nepochs=1\n")
    ckpt = tmp_path / "cfg.ckpt"
    rc = main(["train", str(pipeline / "train.split"),
               "--config", str(cfg), "--out", str(ckpt)])
    assert rc == 0
    log = json.loads((tmp_path / "cfg.ckpt.runlog.json").read_text())
    assert log["gamma"] == 3.0 and len(log["epochs"]) == 1


def test_flags_override_config_file(pipeline, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("variant=lpf\ngamma=3.0\nepochs=1\n")
    ckpt = tmp_path / "o.ckpt"
    rc = main(["train", str(pipeline / "train.split"),
               "--config", str(cfg), "--out", str(ckpt), "--gamma", "5"])
    assert rc == 0
    log = json.loads((tmp_path / "o.ckpt.runlog.json").read_text())
    assert log["gamma"] == 5.0


def test_config_file_gamma_list_for_sweep(pipeline, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("gamma=0,1.5\nepochs=1\n")
    out = tmp_path / "sweep.json"
    rc = main(["sweep", str(pipeline / "train.split"), str(pipeline / "id_test.split"),
               str(pipeline / "ood_test.split"), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    assert [r.gamma for r in load_report(out)] == [0.0, 1.5]
    capsys.readouterr()


def test_config_file_unknown_key_exits_two(pipeline, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("variant=lpf\n# one epoch\nepoch=1\n")
    rc = main(["train", str(pipeline / "train.split"),
               "--config", str(cfg), "--out", str(tmp_path / "t.ckpt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{cfg}: line 3: unknown key 'epoch'" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "t.ckpt").exists()


def test_one_config_file_drives_train_and_sweep(pipeline, tmp_path, capsys):
    cfg = tmp_path / "both.cfg"
    cfg.write_text("variant=lpf\ngamma=2\nepochs=1\nformat=csv\nseed=3\n")
    ckpt, report = tmp_path / "both.ckpt", tmp_path / "both.csv"
    assert main(["train", str(pipeline / "train.split"),
                 "--config", str(cfg), "--out", str(ckpt)]) == 0
    assert json.loads((tmp_path / "both.ckpt.runlog.json").read_text())["gamma"] == 2.0
    assert main(["sweep", str(pipeline / "train.split"), str(pipeline / "id_test.split"),
                 str(pipeline / "ood_test.split"), "--config", str(cfg), "--gamma", "0",
                 "--out", str(report)]) == 0
    assert report.read_text().splitlines()[0] == ",".join(REPORT_CSV_COLUMNS)
    capsys.readouterr()


def test_config_file_bad_number_exits_two(pipeline, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs=three\n")
    rc = main(["train", str(pipeline / "train.split"),
               "--config", str(cfg), "--out", str(tmp_path / "b.ckpt")])
    assert rc == 2
    assert "epochs" in capsys.readouterr().err
