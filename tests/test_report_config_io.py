"""Property tests for report and ``--config`` files: a corrupted file is
either read or rejected as a data error in one line, never a traceback."""
import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_benchmark_config
from debiasvqa import cli, harness, init_params
from debiasvqa.cli import main
from debiasvqa.harness import RunLog
from debiasvqa.synthbench import make_benchmark, save_split

# small: all of this file runs in about a second; a train or sweep run costs
# about twice a report conversion, so those properties draw fewer examples
REPORT_IO = settings(max_examples=100)
TRAIN_IO = settings(max_examples=30)

# what a corrupted number may read as: out of range, not finite, negative,
# the wrong json type, or a count too large for float64 to hold exactly
REPLACEMENTS = (b"1e400", b"NaN", b"Infinity", b"-1", b'"x"', b"[]", b"null", b"%d" % 2 ** 70)
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

CONFIG = b"""# one file for train, sweep and report
variant = lpf
gamma = 0, 2.5
epochs = 2
lr = 0.0003
batch-size = 16
seed = 3
format = json
out = report.json
"""


@st.composite
def corruptions(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "number"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ 1 << draw(st.integers(0, 7))]) + blob[i + 1:]
    start, end = draw(st.sampled_from([m.span() for m in NUMBER.finditer(blob)]))
    return blob[:start] + draw(st.sampled_from(REPLACEMENTS)) + blob[end:]


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    """The directory of a two-gamma sweep report on toy splits, and its bytes."""
    root = tmp_path_factory.mktemp("report_config_io")
    paths = [str(root / f"{name}.split") for name in ("train", "id_test", "ood_test")]
    for split, path in zip(make_benchmark(toy_benchmark_config()), paths):
        save_split(split, path)
    assert main(["sweep", *paths, "--gamma", "0", "--gamma", "2", "--epochs", "1",
                 "--out", str(root / "sweep.json")]) == 0
    return root, (root / "sweep.json").read_bytes()


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@REPORT_IO
@given(data=st.data())
def test_corrupted_report_is_converted_or_rejected_in_one_line(sweep_report, data):
    root, blob = sweep_report
    bad = root / "bad.json"
    bad.write_bytes(data.draw(corruptions(blob), label="report"))
    code, err = run_quietly(["report", str(bad), "--out", str(root / "out.csv")])
    assert code == 0 or (code == 2 and err.count("\n") == 1), err


@REPORT_IO
@given(data=st.data())
def test_corrupted_config_is_applied_or_rejected_in_one_line(sweep_report, data):
    root, _ = sweep_report
    bad = root / "bad.cfg"
    bad.write_bytes(data.draw(corruptions(CONFIG), label="config"))
    code, err = run_quietly(["report", str(root / "sweep.json"), "--config", str(bad),
                             "--out", str(root / "out")])  # a corrupted out= never writes
    assert code == 0 or (code == 2 and err.count("\n") == 1), err


@TRAIN_IO
@given(data=st.data())
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_corrupted_config_trains_or_is_rejected_in_one_line(sweep_report, command, data):
    """Every value is read before any work: a rejected file never reaches training.

    Training is a stub because a corrupted file may ask for 2**70 epochs.
    """
    root, _ = sweep_report
    blob = CONFIG if command == "sweep" else CONFIG.replace(b"0, 2.5", b"2.5")  # train: one gamma
    bad = root / "bad.cfg"
    bad.write_bytes(data.draw(corruptions(blob), label="config"))
    splits = [str(root / f"{name}.split") for name in ("train", "id_test", "ood_test")]
    calls = []

    def stub(split, config, record_hook=None):
        calls.append(config)
        return init_params(config.model), RunLog()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "train", stub)
        patch.setattr(harness, "train", stub)
        code, err = run_quietly([command, *(splits if command == "sweep" else splits[:1]),
                                 "--config", str(bad), "--out", str(root / "out")])
    assert code == 0 or (code == 2 and err.count("\n") == 1 and not calls), err
