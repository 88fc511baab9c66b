"""Property test for the checkpoint reader: a corrupted checkpoint is
either scored or rejected as a data error in one line, never a traceback."""
import contextlib
import io
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_benchmark_config, toy_model_config
from debiasvqa.cli import main
from debiasvqa.model import init_params, save_checkpoint
from debiasvqa.synthbench import build_priors, generate_split, save_split

# small and reproducible: all of this file runs in about a second
CHECKPOINT_IO = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def size_fields(blob: bytes) -> list[tuple[int, str]]:
    """Offset and struct format of the tensor count, every ndim and every dim."""
    (config_len,) = struct.unpack_from("<I", blob, 12)  # after the magic and the version
    pos = 16 + config_len
    (count,) = struct.unpack_from("<I", blob, pos)
    fields, pos = [(pos, "<I")], pos + 4
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + name_len
        (ndim,) = struct.unpack_from("<I", blob, pos)
        shape = struct.unpack_from(f"<{ndim}q", blob, pos + 4)
        fields += [(pos, "<I")] + [(pos + 4 + 8 * i, "<Q") for i in range(ndim)]
        pos += 4 + 8 * ndim + 8 * math.prod(shape)
    assert pos == len(blob)
    return fields


@st.composite
def corruptions(draw, blob: bytes) -> tuple[str, bytes]:
    kind = draw(st.sampled_from(["truncate", "flip", "oversize"]))
    if kind == "truncate":
        return kind, blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return kind, blob[:i] + bytes([blob[i] ^ 1 << draw(st.integers(0, 7))]) + blob[i + 1:]
    pos, fmt = draw(st.sampled_from(size_fields(blob)))
    (value,) = struct.unpack_from(fmt, blob, pos)
    value = draw(st.integers(value + 1, 2 ** (8 * struct.calcsize(fmt)) - 1))
    return kind, blob[:pos] + struct.pack(fmt, value) + blob[pos + struct.calcsize(fmt):]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A small split file, and the bytes of a checkpoint that can score it."""
    root = tmp_path_factory.mktemp("checkpoint_io")
    config = toy_benchmark_config()
    save_split(generate_split(build_priors(config)[0], 12, "test", config), root / "test.split")
    save_checkpoint(init_params(toy_model_config(0)), root / "model.ckpt")
    assert main(["eval", str(root / "model.ckpt"), str(root / "test.split"),
                 "--out", str(root / "ok.json")]) == 0
    return root, (root / "model.ckpt").read_bytes()


@CHECKPOINT_IO
@given(data=st.data())
def test_corrupted_checkpoint_is_scored_or_rejected_in_one_line(valid, data):
    root, blob = valid
    kind, corrupted = data.draw(corruptions(blob), label="corruption")
    bad = root / "bad.ckpt"
    bad.write_bytes(corrupted)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", str(bad), str(root / "test.split")])
    assert code == 2 or (kind == "flip" and code == 0)  # a flipped weight bit still scores
    if code == 2:
        assert err.getvalue().count("\n") == 1
