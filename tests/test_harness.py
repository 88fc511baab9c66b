"""Training loop, evaluation, sweeps, and report files."""
import csv
import hashlib
import json

import numpy as np
import pytest

from conftest import toy_benchmark_config, toy_model_config
from debiasvqa import (
    BenchmarkConfig,
    LossVariant,
    Split,
    TrainConfig,
    adam_step,
    batch_objective,
    build_priors,
    evaluate,
    generate_split,
    init_params,
    kl_divergence,
    load_report,
    make_benchmark,
    save_checkpoint,
    sweep_gamma,
    train,
    zero_grad,
)
from debiasvqa.cli import main, model_config_for
from debiasvqa.errors import ConfigError, DataFormatError
from debiasvqa.harness import (
    REPORT_CSV_COLUMNS,
    check_compatible,
    emit_report,
    epoch_order,
    forward_batch,
)
from debiasvqa.model import ModelConfig


@pytest.fixture(scope="module")
def toy():
    cfg = toy_benchmark_config(seed=0)
    train_s, id_s, ood_s = make_benchmark(cfg)
    return cfg, train_s, id_s, ood_s, toy_model_config(7)


def quick_config(model, variant=None, **overrides):
    kwargs = dict(variant=variant or LossVariant.lpf(2.0), model=model,
                  lr=1e-2, batch_size=16, epochs=2, seed=5)
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# config and compatibility
# ---------------------------------------------------------------------------

def test_train_config_validation(toy):
    _, _, _, _, mc = toy
    with pytest.raises(ConfigError):
        quick_config(mc, lr=0.0)
    with pytest.raises(ConfigError):
        quick_config(mc, batch_size=0)
    with pytest.raises(ConfigError):
        quick_config(mc, epochs=-1)


def test_check_compatible_rejects_mismatches(toy):
    _, train_s, _, _, _ = toy
    with pytest.raises(ConfigError):
        check_compatible(train_s, ModelConfig(vocab_size=9, num_answers=4, v_in_dim=4))
    with pytest.raises(ConfigError):
        check_compatible(train_s, ModelConfig(vocab_size=4, num_answers=9, v_in_dim=4))
    with pytest.raises(ConfigError):
        check_compatible(train_s, ModelConfig(vocab_size=4, num_answers=4, v_in_dim=5))


def test_train_rejects_mismatch_before_any_step(toy):
    _, train_s, _, _, _ = toy
    with pytest.raises(ConfigError):
        train(train_s, quick_config(ModelConfig(vocab_size=9, num_answers=4, v_in_dim=4)))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_init(toy):
    _, train_s, _, _, mc = toy
    params, log = train(train_s, quick_config(mc, epochs=0))
    fresh = init_params(mc)
    for name in params.names():
        assert np.array_equal(params[name].data, fresh[name].data)
    assert log.epochs == []


def test_ce_is_gamma_zero_bitwise(toy):
    _, train_s, _, _, mc = toy
    p_ce, log_ce = train(train_s, quick_config(mc, variant=LossVariant.ce(), epochs=3))
    p_g0, log_g0 = train(train_s, quick_config(mc, variant=LossVariant.lpf(0.0), epochs=3))
    for name in p_ce.names():
        assert np.array_equal(p_ce[name].data, p_g0[name].data)
    for a, b in zip(log_ce.epochs, log_g0.epochs):
        assert a.mean_lpf == b.mean_lpf and a.train_accuracy == b.train_accuracy


def test_training_matches_manual_replay(toy):
    # mirror the loop by hand, including shuffling and a partial final batch
    _, train_s, _, _, mc = toy
    tc = quick_config(mc, batch_size=24, epochs=2)
    got, _ = train(train_s, tc)

    params = init_params(mc)
    all_p = params.all_parameters()
    n = len(train_s)
    for epoch in range(tc.epochs):
        order = epoch_order(tc, epoch, n)
        for start in range(0, n, tc.batch_size):
            idx = order[start:start + tc.batch_size]
            logits_vqa, logits_qo = forward_batch(
                params, train_s.tokens[idx], train_s.features[idx])
            total, _ = batch_objective(
                logits_vqa, logits_qo, train_s.answers[idx], tc.variant)
            total.backward()
            adam_step(all_p, tc.lr)
            zero_grad(all_p)
    for name in params.names():
        assert np.array_equal(got[name].data, params[name].data)


def test_training_is_deterministic(toy):
    _, train_s, _, _, mc = toy
    tc = quick_config(mc)
    p1, _ = train(train_s, tc)
    p2, _ = train(train_s, tc)
    for name in p1.names():
        assert np.array_equal(p1[name].data, p2[name].data)


def test_both_branches_move_during_training(toy):
    _, train_s, _, _, mc = toy
    params, _ = train(train_s, quick_config(mc, epochs=1))
    fresh = init_params(mc)
    qo_moved = any(not np.array_equal(t.data, fresh[t.name].data)
                   for t in params.qo_parameters())
    enc_moved = any(not np.array_equal(t.data, fresh[t.name].data)
                    for t in params.encoder_parameters())
    assert qo_moved and enc_moved


def test_record_hook_sees_every_step(toy):
    _, train_s, _, _, mc = toy
    calls = []
    train(train_s, quick_config(mc, batch_size=32, epochs=2),
          record_hook=lambda epoch, step, idx, record: calls.append(
              (epoch, step, len(idx), record.beta.shape)))
    assert [(c[0], c[1]) for c in calls] == [(0, 0), (0, 1), (1, 2), (1, 3)]
    assert all(c[2] == 32 and c[3] == (32,) for c in calls)


def test_epoch_stats_ranges(toy):
    _, train_s, _, _, mc = toy
    _, log = train(train_s, quick_config(mc, variant=LossVariant.lpf(2.0), epochs=3))
    assert len(log.epochs) == 3
    for e in log.epochs:
        assert 0.0 <= e.mean_alpha <= 1.0
        assert 0.0 <= e.mean_beta <= 1.0
        assert 0.0 <= e.train_accuracy <= 1.0
        assert np.isfinite([e.mean_lpf, e.mean_qo]).all()


def test_ce_logs_unit_beta(toy):
    _, train_s, _, _, mc = toy
    _, log = train(train_s, quick_config(mc, variant=LossVariant.ce(), epochs=2))
    assert all(e.mean_beta == 1.0 for e in log.epochs)


def test_focal_and_precomputed_variants_train(toy):
    _, train_s, _, _, mc = toy
    for variant in (LossVariant.focal(), LossVariant.precomputed()):
        _, log = train(train_s, quick_config(mc, variant=variant, epochs=1))
        assert log.epochs[0].mean_beta < 1.0


def test_epoch_order_properties():
    mc = toy_model_config(0)
    tc = quick_config(mc)
    first = epoch_order(tc, 0, 64)
    assert np.array_equal(first, epoch_order(tc, 0, 64))
    assert not np.array_equal(first, epoch_order(tc, 1, 64))
    assert np.array_equal(np.sort(first), np.arange(64))


# ---------------------------------------------------------------------------
# kl_divergence
# ---------------------------------------------------------------------------

def test_kl_zero_for_identical_distributions():
    for k in (2, 5, 9):
        p = np.full(k, 1.0 / k)
        assert abs(kl_divergence(p, p)) < 1e-12


def test_kl_point_mass_against_uniform():
    assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - np.log(2.0)) < 1e-8


def test_kl_nonnegative():
    rng = np.random.default_rng(33)
    for _ in range(200):
        p = rng.random(6)
        p /= p.sum()
        q = rng.random(6)
        q /= q.sum()
        assert kl_divergence(p, q) >= -1e-12


def test_kl_handles_zero_reference_mass():
    val = kl_divergence([0.5, 0.5], [1.0, 0.0])
    assert np.isfinite(val) and val > 5.0


def test_kl_is_asymmetric():
    p, q = [0.9, 0.1], [0.2, 0.8]
    assert abs(kl_divergence(p, q) - kl_divergence(q, p)) > 0.1


def test_kl_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        kl_divergence(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def zeroed_params(mc):
    params = init_params(mc)
    for t in params.all_parameters():
        t.data[...] = 0.0
    return params


def test_evaluate_constant_predictor(toy):
    # all-zero weights make every logit 0; ties resolve to answer 0
    _, _, id_s, _, mc = toy
    report = evaluate(zeroed_params(mc), id_s)
    answers = id_s.answers
    assert report.overall_accuracy == float((answers == 0).mean())
    assert report.sample_count == len(id_s)
    for qt in range(id_s.num_qtypes):
        mask = id_s.qtypes == qt
        assert report.per_qtype_counts[qt] == mask.sum()
        assert report.per_qtype_accuracy[qt] == float((answers[mask] == 0).mean())
        expected_row = np.zeros(id_s.num_answers)
        expected_row[0] = 1.0
        assert np.array_equal(report.predicted_distribution[qt], expected_row)
    recombined = (report.per_qtype_accuracy * report.per_qtype_counts).sum() / len(id_s)
    assert abs(recombined - report.overall_accuracy) < 1e-12


def test_evaluate_ignores_qo_head(toy):
    _, train_s, id_s, _, mc = toy
    params, _ = train(train_s, quick_config(mc))
    before = evaluate(params, id_s)
    for t in params.qo_parameters():
        t.data[...] = 0.0
    after = evaluate(params, id_s)
    assert before.overall_accuracy == after.overall_accuracy
    assert np.array_equal(before.predicted_distribution, after.predicted_distribution)


def test_evaluate_train_prior_kl(toy):
    _, train_s, id_s, ood_s, mc = toy
    params, _ = train(train_s, quick_config(mc, epochs=1))
    plain = evaluate(params, id_s)
    assert plain.kl_to_train_prior is None
    with_prior = evaluate(params, id_s, train_priors=train_s.priors)
    # the in-distribution split carries the train priors already
    assert np.array_equal(with_prior.kl_to_train_prior, with_prior.kl_to_split_prior)
    ood = evaluate(params, ood_s, train_priors=train_s.priors)
    assert not np.array_equal(ood.kl_to_train_prior, ood.kl_to_split_prior)


def test_evaluate_rejects_empty_and_missing_qtypes(toy):
    cfg, train_s, _, _, mc = toy
    params = init_params(mc)

    def rows(mask):
        return Split(train_s.qtypes[mask], train_s.tokens[mask], train_s.answers[mask],
                     train_s.features[mask], train_s.priors, "test", cfg)
    with pytest.raises(ValueError):
        evaluate(params, rows(np.zeros(len(train_s), dtype=bool)))
    with pytest.raises(ValueError, match="question type 1"):
        evaluate(params, rows(train_s.qtypes == 0))


# ---------------------------------------------------------------------------
# sweep and reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_rows(toy):
    _, train_s, id_s, ood_s, mc = toy
    base = quick_config(mc)
    return sweep_gamma([0.0, 2.0], base, (train_s, id_s, ood_s)), base


def test_sweep_shape_and_gamma_zero_baseline(toy, sweep_rows):
    _, train_s, id_s, _, mc = toy
    rows, base = sweep_rows
    assert [r.gamma for r in rows] == [0.0, 2.0]
    from dataclasses import replace
    params, _ = train(train_s, replace(base, variant=LossVariant.lpf(0.0)))
    direct = evaluate(params, id_s, train_priors=train_s.priors)
    assert rows[0].id_report.overall_accuracy == direct.overall_accuracy
    assert np.array_equal(rows[0].id_report.predicted_distribution,
                          direct.predicted_distribution)


def test_sweep_validates_gammas(toy, sweep_rows):
    _, train_s, id_s, ood_s, mc = toy
    _, base = sweep_rows
    with pytest.raises(ConfigError):
        sweep_gamma([], base, (train_s, id_s, ood_s))
    with pytest.raises(ConfigError):
        sweep_gamma([-1.0], base, (train_s, id_s, ood_s))


def test_report_json_round_trip(tmp_path, sweep_rows):
    rows, _ = sweep_rows
    path = tmp_path / "report.json"
    emit_report(rows, path)
    loaded = load_report(path)
    assert len(loaded) == len(rows)
    for got, want in zip(loaded, rows):
        assert got.gamma == want.gamma
        for g, w in ((got.id_report, want.id_report), (got.ood_report, want.ood_report)):
            assert g.overall_accuracy == w.overall_accuracy
            assert g.sample_count == w.sample_count
            assert np.array_equal(g.per_qtype_accuracy, w.per_qtype_accuracy)
            assert np.array_equal(g.per_qtype_counts, w.per_qtype_counts)
            assert np.array_equal(g.predicted_distribution, w.predicted_distribution)
            assert np.array_equal(g.kl_to_split_prior, w.kl_to_split_prior)
            assert np.array_equal(g.kl_to_train_prior, w.kl_to_train_prior)


def test_report_emission_is_byte_stable(tmp_path, sweep_rows):
    rows, _ = sweep_rows
    for fmt in ("json", "csv"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        emit_report(rows, a, format=fmt)
        emit_report(rows, b, format=fmt)
        assert a.read_bytes() == b.read_bytes()


def test_report_csv_layout(tmp_path, sweep_rows):
    rows, _ = sweep_rows
    path = tmp_path / "report.csv"
    emit_report(rows, path, format="csv")
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert tuple(parsed[0]) == REPORT_CSV_COLUMNS
    assert len(parsed) == 1 + 2 * len(rows)
    first = parsed[1]
    assert float(first[0]) == rows[0].gamma
    assert first[1] == "id" and parsed[2][1] == "ood"
    assert float(first[2]) == rows[0].id_report.overall_accuracy
    assert int(first[5]) == rows[0].id_report.sample_count


def test_report_rejects_unknown_format(tmp_path, sweep_rows):
    rows, _ = sweep_rows
    with pytest.raises(ConfigError):
        emit_report(rows, tmp_path / "x.tsv", format="tsv")


def test_load_report_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError):
        load_report(bad)
    bad.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(DataFormatError):
        load_report(bad)
    bad.write_text(json.dumps({"format_version": 99, "rows": []}))
    with pytest.raises(DataFormatError, match="version"):
        load_report(bad)


# ---------------------------------------------------------------------------
# pinned checkpoints
# ---------------------------------------------------------------------------

# SHA-256 of checkpoints trained for 3 epochs on a 1000-sample default
# split, recorded before the training step was fused (per-tensor Adam,
# np.add.at embedding backward, softmax recomputed per consumer).  Floats
# may round differently under another BLAS or numpy build, so the pins
# hold only for the build they were recorded with.
PINNED_BUILD = {"numpy": "2.4.6", "blas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                                           "NO_AFFINITY Haswell MAX_THREADS=64"}
PINNED_CHECKPOINTS = {
    "0-ce": "59379c7bb47090343b628d542b706f5154741588c79c30fa9751f5531fc1c758",
    "0-lpf5": "714b12b5d17d9646d693c68a38d30d5e30a98437c708d300d9b06b869f6200e9",
    "0-focal": "96b718890c6c0e6377c20aa1a38d520e439caa476219fbbc5f9199346f9560ee",
    "0-precomputed": "4ae17530c3ca424e2ff8ae01d5120483ffe331ef3b6f2ddc191083341f78abbf",
    "1-ce": "4e3fcfcf832c76e55f20bb72afee8c4416778fa990d73ea5dcfb21a6b901364b",
    "1-lpf5": "fc6d7d0f576daa5dc60d51842da7342038e65b9b143bf6020f5bb27e202b35c2",
    "1-focal": "ee113c9562ded1d48ce06755f500589ba4225948de23912e76573e514015311d",
    "1-precomputed": "408570853d0ce3097c52e07de828cb77ebd7699b3fd9e13fb54bedb25ba5c4a8",
    "2-ce": "7e60521daed170007f1ad5c5ecb426b48526cab10f817baf9341817f929a4bdf",
    "2-lpf5": "ca6164a6f9373acd19a9fe03d62975f5998af3c0da2c334eb2d400798abc5b92",
    "2-focal": "e3cedc284274adeab841c13c4f007ff2cecdfb5f53efa93334bfedd23c78692e",
    "2-precomputed": "5d92e33c9cedf92769128f5ba702a82295f20d090198c5fb8f1395b5f0f8318b",
    "3-ce": "e7f7786dc23c57eebd0ca9cc3b0cec6433aaf3de005df31640d0dddffa3a5549",
    "3-lpf5": "ab3c64b50ec7ec71045a6428cfefc425adbb36998bd6d88373aa64823ed80dbb",
    "3-focal": "394bc4045fa28fae2e0dfd38c2dd2e36552ad05d3d54366d29887b1e98c484ee",
    "3-precomputed": "0ad729450fa46833cafb78a5fd2b831af4b6140e53603725bc05a1c1cefd8baf",
    "4-ce": "179642b4db30aaae46a314a4f1cc544c6a1cbff396ec15feaced2ee309bec307",
    "4-lpf5": "09449b7023941cf70b51e29a0ac0654fecdbc26fa77e4bfa31eebccecacd4c88",
    "4-focal": "e5431ed64e0396659736403fc443002e4958ffde6568f9304a980286ffc63f10",
    "4-precomputed": "626aa48acceec2af89ddd2a52138357c6aecd2c065a10307429a560bc61b03a8",
}
PINNED_VARIANTS = {"ce": LossVariant.ce(), "lpf5": LossVariant.lpf(5.0),
                   "focal": LossVariant.focal(), "precomputed": LossVariant.precomputed()}


def _numpy_build() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("openblas configuration")}


@pytest.mark.skipif(_numpy_build() != PINNED_BUILD,
                    reason=f"numpy/BLAS build {_numpy_build()} differs from the pinned {PINNED_BUILD}")
@pytest.mark.parametrize("seed", range(5))
def test_checkpoints_match_pinned_digests(seed, tmp_path):
    bench = BenchmarkConfig(seed=seed, n_train=1000, n_test=40)
    split = generate_split(build_priors(bench)[0], bench.n_train, "train", bench)
    for name, variant in PINNED_VARIANTS.items():
        config = TrainConfig(variant=variant, model=model_config_for(bench, seed),
                             epochs=3, seed=seed)
        params, _ = train(split, config)
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(params, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_CHECKPOINTS[f"{seed}-{name}"], name


# SHA-256 of the three files ``debiasvqa gen --seed 0`` writes, recorded
# while split files were still formatted one value at a time with
# f"{v:.17g}".  Feature noise goes through numpy's log, cos and sin
# kernels, so these pins share the build guard above.
PINNED_SPLITS = {
    "train.split": "e1cff11b23bc37545989041bc33b9b2f9ce3a4ce28be09256ab7211b61a9d3d3",
    "id_test.split": "7785eee34a7c90422c977af39f467ca6e46b297eb14193f7cbdcc2131b445ad8",
    "ood_test.split": "481a022bf41999f7a137936a981b4f89369696a5f34e27a91488ddb1ff0c04fd",
}


@pytest.mark.skipif(_numpy_build() != PINNED_BUILD,
                    reason=f"numpy/BLAS build {_numpy_build()} differs from the pinned {PINNED_BUILD}")
def test_gen_matches_pinned_split_digests(tmp_path, capsys):
    assert main(["gen", "--seed", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, pinned in PINNED_SPLITS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned, name
