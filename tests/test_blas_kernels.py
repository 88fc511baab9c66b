"""Determinism across OpenBLAS kernels and thread counts.

The short pinned run of tests/test_harness.py (a 1000-sample default
split, 3 epochs of lpf(5), seed 0) runs in fresh processes under the
kernel OpenBLAS picks here and under forced older ones
(``OPENBLAS_CORETYPE``), each at 1 and 2 threads.
"""
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import debiasvqa
from conftest import openblas_corename
from debiasvqa import load_checkpoint

# Chosen before any cross-kernel run was compared: kernels differ in how
# they round and order a sum (about 1e-16 relative per operation), while
# the run's 12 Adam steps at lr 3e-4 can move a parameter by about 4e-3
# in all, so 1e-6 is under a thousandth of that.
PARAM_ATOL = 1e-6

# conftest imports pytest and hypothesis, which would double each run's
# start-up, so the run asks the library lookup for the kernel name itself
RUN = """import sys
from debiasvqa import (BenchmarkConfig, LossVariant, TrainConfig, build_priors,
                       generate_split, save_checkpoint, save_split, train)
from debiasvqa.autodiff import _openblas
from debiasvqa.cli import model_config_for
bench = BenchmarkConfig(seed=0, n_train=1000, n_test=40)
split = generate_split(build_priors(bench)[0], bench.n_train, "train", bench)
save_split(split, sys.argv[1] + ".split")
config = TrainConfig(variant=LossVariant.lpf(5.0), model=model_config_for(bench, 0),
                     epochs=3, seed=0)
save_checkpoint(train(split, config)[0], sys.argv[1] + ".ckpt")
print(_openblas()["get_corename"]().decode())
"""


def _forced_kernels() -> list[str]:
    """Prescott (SSE3) runs on every x86-64 CPU; Sandybridge only with AVX."""
    cpuinfo = Path("/proc/cpuinfo")
    flags = cpuinfo.read_text().split() if cpuinfo.exists() else []
    return ["Prescott"] + (["Sandybridge"] if "avx" in flags else [])


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or openblas_corename() is None,
                    reason="needs numpy's vendored OpenBLAS on x86-64")
def test_runs_agree_across_kernels_and_threads(tmp_path):
    path = str(Path(debiasvqa.__file__).parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    names, outs = {}, {}
    for kernel in [None, *_forced_kernels()]:
        for threads in (1, 2):
            env = {**base, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads),
                   **({"OPENBLAS_CORETYPE": kernel} if kernel else {})}
            out = tmp_path / f"{kernel or 'live'}-{threads}"
            done = subprocess.run([sys.executable, "-c", RUN, str(out)], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            names[kernel, threads], outs[kernel, threads] = done.stdout.strip(), out
    if names[None, 1] not in ("Prescott", "Katmai"):  # else no older kernel to force
        assert names[None, 1] != names["Prescott", 1], names  # the override took effect
    assert len({_digest(out.with_suffix(".split")) for out in outs.values()}) == 1
    live = load_checkpoint(outs[None, 1].with_suffix(".ckpt"))
    for kernel in [None, *_forced_kernels()]:
        one, two = (outs[kernel, t].with_suffix(".ckpt") for t in (1, 2))
        assert one.read_bytes() == two.read_bytes(), names[kernel, 1]
        params = load_checkpoint(one)
        for name in live.names():
            gap = np.abs(params[name].data - live[name].data).max()
            assert gap <= PARAM_ATOL, (names[kernel, 1], name, gap)
