"""Every int and float field of the four config dataclasses, read from their
declarations, so a field added later is covered too: each rejects a bool,
a value of the wrong type, a non-finite value and a value past its bound
with a ConfigError that names it, and accepts the value at its bound.  A
float field given an int stores the equal float, and a field that names a
config class rejects anything else."""
import dataclasses
import math

import numpy as np
import pytest

from conftest import toy_benchmark_config, toy_model_config
from debiasvqa import BenchmarkConfig, LossVariant, build_priors, generate_split, save_split
from debiasvqa.errors import ConfigError
from debiasvqa.harness import TrainConfig

VALID = (toy_benchmark_config(), toy_model_config(0), LossVariant.lpf(2.0),
         TrainConfig(variant=LossVariant.lpf(2.0), model=toy_model_config(0)))
FIELDS = [(config, f) for config in VALID for f in dataclasses.fields(config)
          if f.type in ("int", "float")]


def _bound_cases(f):
    """(the first value the bound rejects, the last it accepts), or None if unbounded."""
    if "low" not in f.metadata:
        return None
    low = f.metadata["low"]
    if f.type == "int":
        return (low, low + 1) if f.metadata["above"] else (low - 1, low)
    if f.metadata["above"]:
        return low, math.nextafter(low, math.inf)
    return math.nextafter(low, -math.inf), low


@pytest.mark.parametrize("config, f", FIELDS,
                         ids=[f"{type(c).__name__}.{f.name}" for c, f in FIELDS])
def test_field_rejects_wrong_type_non_finite_and_out_of_bound(config, f):
    bad = [True, "1"] + ([2.5, np.int64(1)] if f.type == "int" else [math.nan, math.inf, -math.inf])
    bounds = _bound_cases(f)
    if bounds is not None:
        bad.append(bounds[0])
        accepted = dataclasses.replace(config, **{f.name: bounds[1]})
        assert getattr(accepted, f.name) == bounds[1]
    for value in bad:
        with pytest.raises(ConfigError, match=f"^{f.name} must be "):
            dataclasses.replace(config, **{f.name: value})


def test_int_valued_floats_give_equal_fingerprints_and_split_files(tmp_path):
    as_int = BenchmarkConfig(prototype_scale=2, noise_std=0, zipf_s=1, n_train=40, n_test=40)
    as_float = BenchmarkConfig(prototype_scale=2.0, noise_std=0.0, zipf_s=1.0, n_train=40, n_test=40)
    assert [type(getattr(as_int, f)) for f in ("prototype_scale", "noise_std", "zipf_s")] == [float] * 3
    assert as_int.fingerprint() == as_float.fingerprint()
    for name, config in (("int", as_int), ("float", as_float)):
        save_split(generate_split(build_priors(config)[0], 40, "train", config), tmp_path / name)
    assert (tmp_path / "int").read_bytes() == (tmp_path / "float").read_bytes()
    assert type(LossVariant.lpf(2).gamma) is float
    assert type(dataclasses.replace(VALID[3], lr=1).lr) is float


@pytest.mark.parametrize("field_name, value", [("variant", "lpf"), ("model", "toy"),
                                               ("variant", toy_model_config(0))],
                         ids=["variant-str", "model-str", "variant-model"])
def test_train_config_rejects_a_variant_or_model_of_another_type(field_name, value):
    with pytest.raises(ConfigError, match=f"^{field_name} must be a "):
        dataclasses.replace(VALID[3], **{field_name: value})
