"""Property tests for ``--config`` files: a corrupted file is either read
or rejected as a data error in one line, never a traceback."""
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
# more than an eval, so those properties draw fewer examples
EVAL_IO = settings(max_examples=100)
TRAIN_IO = settings(max_examples=30)

# what a corrupted number may read as: out of range, not finite, negative,
# the wrong type, or a count too large for float64 to hold exactly
REPLACEMENTS = (b"1e400", b"NaN", b"Infinity", b"-1", b'"x"', b"[]", b"null", b"%d" % 2 ** 70)
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

CONFIG = b"""# one file for train, eval and sweep
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
def toy_run(tmp_path_factory):
    """A directory holding toy splits and a one-epoch checkpoint trained on them."""
    root = tmp_path_factory.mktemp("config_io")
    paths = [str(root / f"{name}.split") for name in ("train", "id_test", "ood_test")]
    for split, path in zip(make_benchmark(toy_benchmark_config()), paths):
        save_split(split, path)
    assert main(["train", paths[0], "--epochs", "1", "--out", str(root / "model.ckpt")]) == 0
    return root


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@EVAL_IO
@given(data=st.data())
def test_corrupted_config_is_applied_or_rejected_in_one_line(toy_run, data):
    root = toy_run
    bad = root / "bad.cfg"
    bad.write_bytes(data.draw(corruptions(CONFIG), label="config"))
    code, err = run_quietly(["eval", str(root / "model.ckpt"), str(root / "ood_test.split"),
                             "--config", str(bad),
                             "--out", str(root / "out")])  # a corrupted out= never writes
    assert code == 0 or (code == 2 and err.count("\n") == 1), err


@TRAIN_IO
@given(data=st.data())
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_corrupted_config_trains_or_is_rejected_in_one_line(toy_run, command, data):
    """Every value is read before any work: a rejected file never reaches training.

    Training is a stub because a corrupted file may ask for 2**70 epochs.
    """
    root = toy_run
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
