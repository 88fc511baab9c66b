"""Property tests for the split text format: bitwise round-trip, and
corruption that must be reported as a data error naming its line."""
import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_benchmark_config, toy_model_config
from debiasvqa.cli import main
from debiasvqa.errors import DataFormatError
from debiasvqa.model import init_params, save_checkpoint
from debiasvqa.synthbench import (
    BenchmarkConfig,
    Split,
    build_priors,
    generate_split,
    load_split,
    save_split,
)

# small: all of this file runs in about two seconds
SPLIT_IO = settings(max_examples=40)

# -0.0, subnormals, the extremes, and values that need all 17 digits
SPECIAL_FEATURES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                    1.7976931348623157e308, 0.1, 1 / 3, -2 / 3, 9007199254740993.0)
FEATURES = st.one_of(st.sampled_from(SPECIAL_FEATURES),
                     st.floats(allow_nan=False, allow_infinity=False))


def reference_text(split: Split) -> str:
    """The split file as written one value at a time with f"{v:.17g}"."""
    header = {
        "format_version": 1,
        "fingerprint": split.config.fingerprint(),
        "role": split.role,
        "config": split.config.__dict__,
        "priors": [[f"{v:.17g}" for v in row] for row in split.priors.table],
    }
    lines = [json.dumps(header, sort_keys=True)]
    for q, tokens, a, feature in zip(split.qtypes.tolist(), split.tokens.tolist(),
                                     split.answers.tolist(), split.features.tolist()):
        lines.append(" ".join([str(q)] + [str(v) for v in tokens] + [str(a)]
                              + [f"{v:.17g}" for v in feature]))
    return "\n".join(lines) + "\n"


@st.composite
def splits(draw):
    config = BenchmarkConfig(num_qtypes=draw(st.integers(1, 3)),
                             answers_per_qtype=draw(st.integers(2, 3)),
                             tokens_per_question=draw(st.integers(1, 3)),
                             v_in_dim=draw(st.integers(1, 5)))
    n = draw(st.integers(0, 6))
    qtypes = np.array(draw(st.lists(st.integers(0, config.num_qtypes - 1),
                                    min_size=n, max_size=n)), dtype=np.int64)
    offsets = draw(st.lists(st.integers(0, config.answers_per_qtype - 1), min_size=n, max_size=n))
    features = draw(st.lists(FEATURES, min_size=n * config.v_in_dim, max_size=n * config.v_in_dim))
    return Split(answers=qtypes * config.answers_per_qtype + np.array(offsets, dtype=np.int64),
                 features=np.array(features, dtype=np.float64).reshape(n, config.v_in_dim),
                 priors=build_priors(config)[draw(st.integers(0, 1))],
                 role=draw(st.sampled_from(["train", "test"])), config=config)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("split_io")


@SPLIT_IO
@given(split=splits())
def test_round_trip_is_bitwise(scratch, split):
    path = scratch / "round_trip.split"
    save_split(split, path)
    assert path.read_bytes() == reference_text(split).encode("utf-8")
    loaded = load_split(path)
    assert (loaded.role, loaded.config, loaded.priors) == (split.role, split.config, split.priors)
    for column in ("qtypes", "tokens", "answers", "features"):
        got, want = getattr(loaded, column), getattr(split, column)
        assert got.dtype == want.dtype and got.shape == want.shape, column
        assert got.tobytes() == want.tobytes(), column


# toy layout: 2 question types of 2 answers, 2 tokens each, 4 features,
# so a row is "qtype t0 t1 answer f0 f1 f2 f3"
CONFIG = toy_benchmark_config()
T, D = CONFIG.tokens_per_question, CONFIG.v_in_dim
WIDTH = T + 2 + D
ROWS = 12


def _corrupt(kind: str, draw, fields: list[str]) -> tuple[list[str], str]:
    """One corrupted replacement for a row: its lines, and a message fragment."""
    j = draw(st.integers(0, WIDTH - 1))
    if kind == "truncated":
        return [" ".join(fields[:draw(st.integers(1, WIDTH - 1))])], "fields, got"
    if kind == "missing-field":
        return [" ".join(fields[:j] + fields[j + 1:])], f"expected {WIDTH} fields, got {WIDTH - 1}"
    if kind == "extra-field":
        return [" ".join(fields[:j] + ["7"] + fields[j:])], f"got {WIDTH + 1}"
    if kind == "blank":
        return [draw(st.sampled_from(["", " ", "\t "])), " ".join(fields)], "got 0"
    if kind == "comment":
        return [" ".join(fields) + " # note"], f"got {WIDTH + 2}"
    if kind == "hash":
        return ([" ".join(fields[:j] + ["#" + fields[j]] + fields[j + 1:])],
                f"field {j + 1}: could not convert")
    if kind == "non-numeric":
        bad = draw(st.sampled_from(["x", "banana", "1_0", "0x10", "1,5", "--1", "1.0.0"]))
        return [" ".join(fields[:j] + [bad] + fields[j + 1:])], f"field {j + 1}: could not convert"
    if kind == "float-id":
        j = draw(st.integers(0, T + 1))
        bad = draw(st.sampled_from([f"{fields[j]}.0", f"{fields[j]}e0", f"{fields[j]}.5", "0.7"]))
        return [" ".join(fields[:j] + [bad] + fields[j + 1:])], f"field {j + 1}: could not convert"
    if kind == "non-finite":
        j = draw(st.integers(T + 2, WIDTH - 1))
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "-NaN", "Infinity"]))
        return [" ".join(fields[:j] + [bad] + fields[j + 1:])], "non-finite visual feature"
    if kind == "qtype":
        bad = draw(st.one_of(st.integers(CONFIG.num_qtypes, 10 ** 6), st.integers(-10 ** 6, -1)))
        return [" ".join([str(bad)] + fields[1:])], f"qtype {bad} out of range"
    if kind == "answer":
        bad = draw(st.one_of(st.integers(CONFIG.num_answers, 10 ** 6), st.integers(-10 ** 6, -1)))
        return [" ".join(fields[:T + 1] + [str(bad)] + fields[T + 2:])], f"answer {bad} out of range"
    assert kind == "tokens"
    j = draw(st.integers(1, T))
    bad = draw(st.integers(-3, CONFIG.vocab_size + 3).filter(lambda v: v != int(fields[j])))
    return ([" ".join(fields[:j] + [str(bad)] + fields[j + 1:])],
            "tokens are not their question type's template")


KINDS = ("truncated", "missing-field", "extra-field", "blank", "comment", "hash",
         "non-numeric", "float-id", "non-finite", "qtype", "answer", "tokens")


@pytest.fixture(scope="module")
def valid(scratch):
    """A small valid split file and a checkpoint that can score it."""
    split = generate_split(build_priors(CONFIG)[0], ROWS, "test", CONFIG)
    path, ckpt = scratch / "valid.split", scratch / "model.ckpt"
    save_split(split, path)
    save_checkpoint(init_params(toy_model_config(0)), ckpt)
    assert main(["eval", str(ckpt), str(path), "--out", str(scratch / "ok.json")]) == 0
    return path.read_text(encoding="utf-8").splitlines(), ckpt


@settings(SPLIT_IO, max_examples=12)
@given(data=st.data())
@pytest.mark.parametrize("kind", KINDS)
def test_corruption_names_its_line(scratch, valid, kind, data):
    lines, ckpt = valid
    row = data.draw(st.integers(0, ROWS - 1), label="row")
    replacement, message = _corrupt(kind, data.draw, lines[1 + row].split())
    bad = scratch / "bad.split"
    bad.write_text("\n".join(lines[:1 + row] + replacement + lines[2 + row:]) + "\n",
                   encoding="utf-8")
    where = f"line {row + 2}: "
    with pytest.raises(DataFormatError) as excinfo:
        load_split(bad)
    assert where in str(excinfo.value) and message in str(excinfo.value)
    assert "column" not in str(excinfo.value)  # numpy's own counters are not shown
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["eval", str(ckpt), str(bad)]) == 2
    assert where in err.getvalue() and err.getvalue().count("\n") == 1


def test_id_read_via_float_with_a_warning_is_rejected(scratch, valid, monkeypatch, capsys):
    """numpy 1.x reads "0.7" into an int64 field as 0 and only warns."""
    lines, ckpt = valid
    real = np.loadtxt

    def numpy_1x_loadtxt(body, dtype, **kwargs):
        if any(line.split()[0] == "0.7" for line in body):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.\n"
                          "  (Deprecated NumPy 1.23)", DeprecationWarning, stacklevel=2)
        return real([line.replace("0.7", "0", 1) for line in body], dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", numpy_1x_loadtxt)
    row = next(i for i, line in enumerate(lines[1:]) if line.startswith("0 "))
    bad = scratch / "float_qtype.split"
    bad.write_text("\n".join(lines[:1 + row] + ["0.7" + lines[1 + row][1:]] + lines[2 + row:])
                   + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError,
                       match=f"line {row + 2}: field 1: could not convert '0.7' to int64$"):
        load_split(bad)
    capsys.readouterr()
    assert main(["eval", str(ckpt), str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"line {row + 2}: " in err and err.count("\n") == 1
