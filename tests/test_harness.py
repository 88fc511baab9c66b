"""Training loop, evaluation, sweeps, and report files."""
import hashlib
import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import openblas_corename, toy_benchmark_config, toy_model_config
from debiasvqa import (
    BenchmarkConfig,
    EvalReport,
    LossVariant,
    PriorTable,
    Split,
    SweepRow,
    Tensor,
    TrainConfig,
    adam_step,
    batch_objective,
    build_prior_table,
    build_priors,
    evaluate,
    generate_split,
    init_params,
    kl_divergence,
    make_benchmark,
    save_checkpoint,
    save_split,
    sweep_gamma,
    train,
    zero_grad,
)
from debiasvqa import harness
from debiasvqa.autodiff import _openblas, embedding_mean
from debiasvqa.cli import main, model_config_for
from debiasvqa.errors import ConfigError, NumericalError
from debiasvqa.harness import (
    REPORT_FORMAT_VERSION,
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


def lacking_qtype(split, qtype):
    """The rows of ``split`` outside one question type."""
    keep = split.qtypes != qtype
    return Split(split.answers[keep], split.features[keep], split.priors, split.role, split.config)


@pytest.mark.parametrize("variant", [LossVariant.ce(), LossVariant.lpf(2.0), LossVariant.focal(),
                                     LossVariant.precomputed()],
                         ids=["ce", "lpf", "focal", "precomputed"])
def test_train_rejects_a_split_that_lacks_a_question_type(toy, variant):
    _, train_s, _, _, mc = toy
    with pytest.raises(ValueError, match="^split has no samples for question type 1$"):
        train(lacking_qtype(train_s, 1), quick_config(mc, variant))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_init(toy):
    _, train_s, _, _, mc = toy
    params, log = train(train_s, quick_config(mc, epochs=0))
    fresh = init_params(mc)
    for name in params.names():
        assert np.array_equal(params[name].data, fresh[name].data)
    assert log == []


def test_ce_is_gamma_zero_bitwise(toy):
    _, train_s, _, _, mc = toy
    p_ce, log_ce = train(train_s, quick_config(mc, variant=LossVariant.ce(), epochs=3))
    p_g0, log_g0 = train(train_s, quick_config(mc, variant=LossVariant.lpf(0.0), epochs=3))
    for name in p_ce.names():
        assert np.array_equal(p_ce[name].data, p_g0[name].data)
    for a, b in zip(log_ce, log_g0):
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


@pytest.mark.skipif(not {"get_num_threads", "set_num_threads"} <= _openblas().keys(),
                    reason="needs numpy's vendored OpenBLAS")
def test_train_runs_on_one_blas_thread_and_restores_the_count(toy):
    _, train_s, _, _, mc = toy
    get, set_threads = _openblas()["get_num_threads"], _openblas()["set_num_threads"]
    original = get()
    try:
        set_threads(2)
        seen = []
        train(train_s, quick_config(mc), record_hook=lambda *_: seen.append(get()))
        assert seen and set(seen) == {1}
        assert get() == 2
        # a finite step of about 1e100 passes the parameter check, then the next forward overflows
        with pytest.raises(NumericalError, match="non-finite logits at epoch 0, step 1"):
            train(train_s, quick_config(mc, variant=LossVariant.lpf(5.0), lr=1e100))
        assert get() == 2
    finally:
        set_threads(original)


def test_epoch_stats_ranges(toy):
    _, train_s, _, _, mc = toy
    _, log = train(train_s, quick_config(mc, variant=LossVariant.lpf(2.0), epochs=3))
    assert len(log) == 3
    for e in log:
        assert 0.0 <= e.mean_alpha <= 1.0
        assert 0.0 <= e.mean_beta <= 1.0
        assert 0.0 <= e.train_accuracy <= 1.0
        assert np.isfinite([e.mean_lpf, e.mean_qo]).all()


def test_ce_logs_unit_beta(toy):
    _, train_s, _, _, mc = toy
    _, log = train(train_s, quick_config(mc, variant=LossVariant.ce(), epochs=2))
    assert all(e.mean_beta == 1.0 for e in log)


def test_focal_and_precomputed_variants_train(toy):
    _, train_s, _, _, mc = toy
    for variant in (LossVariant.focal(), LossVariant.precomputed()):
        _, log = train(train_s, quick_config(mc, variant=variant, epochs=1))
        assert log[0].mean_beta < 1.0


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
        return Split(train_s.answers[mask], train_s.features[mask], train_s.priors, "test", cfg)
    with pytest.raises(ValueError):
        evaluate(params, rows(np.zeros(len(train_s), dtype=bool)))
    with pytest.raises(ValueError, match="question type 1"):
        evaluate(params, rows(train_s.qtypes == 0))


def test_evaluate_checks_question_types_before_its_forward_pass(toy, monkeypatch):
    _, _, id_s, _, mc = toy
    params, calls, encode_visual = init_params(mc), [], harness.encode_visual

    def counted(features, p):
        calls.append(len(features))
        return encode_visual(features, p)
    monkeypatch.setattr(harness, "encode_visual", counted)
    with pytest.raises(ValueError, match="^split has no samples for question type 0$"):
        evaluate(params, lacking_qtype(id_s, 0))
    assert calls == []
    evaluate(params, id_s)  # the wrapper does see evaluate's forward pass
    assert calls == [len(id_s)]


@pytest.mark.parametrize("table", [[[0.25] * 4], [[0.5, 0.5]] * 2],
                         ids=["fewer-qtypes", "fewer-answers"])
def test_evaluate_rejects_train_priors_of_another_shape(toy, table):
    _, _, id_s, _, mc = toy
    with pytest.raises(ConfigError, match=r"prior table shape \(\d, \d\), split has \(2, 4\)"):
        evaluate(init_params(mc), id_s, train_priors=PriorTable(table))


@pytest.fixture(scope="module")
def default_shifted():
    """A briefly trained default-size model and a default 4000-sample shifted split."""
    bench = BenchmarkConfig(seed=3, n_train=1000)
    train_s, _, ood_s = make_benchmark(bench)
    config = TrainConfig(variant=LossVariant.lpf(5.0), model=model_config_for(bench, 3),
                         epochs=2, seed=3)
    return train(train_s, config)[0], ood_s


def test_evaluate_scores_the_training_forward_pass_without_a_graph(default_shifted, monkeypatch):
    params, ood_s = default_shifted
    seen, predict_vqa = [], harness.predict_vqa

    def spy(v_emb, q, p):
        seen.append(predict_vqa(v_emb, q, p))
        return seen[-1]

    monkeypatch.setattr(harness, "predict_vqa", spy)
    evaluate(params, ood_s)
    monkeypatch.undo()
    assert [len(logits.data) for logits in seen] == [1024, 1024, 1024, 928]
    whole = forward_batch(params, ood_s.tokens, ood_s.features)[0].data
    assert np.array_equal(np.concatenate([logits.data for logits in seen]), whole)
    assert all(not logits.requires_grad and logits._parents == () for logits in seen)
    for p in params.all_parameters():
        assert not p.grad.any(), p.name


# Traced peaks on the default shifted split: evaluate holds the live
# intermediates of one 1024-row forward block plus the [N] predictions
# (about 1.35 MB; a whole-split forward would hold about 3.65 MB), and
# embedding_mean its [B, E] output plus one [B, E] row gather (a
# [B, T, E] gather would be T + 1 outputs).
EVALUATE_PEAK_BYTES = 1_400_000


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_allocation_peak_is_bounded(default_shifted):
    params, ood_s = default_shifted
    assert _traced_peak(evaluate, params, ood_s, ood_s.priors) <= EVALUATE_PEAK_BYTES
    table = Tensor(params["token_embeddings"].data)
    out_bytes = len(ood_s) * table.data.shape[1] * 8
    assert _traced_peak(embedding_mean, table, ood_s.tokens) <= 2.5 * out_bytes


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
                                   np.uint64], ids=lambda d: np.dtype(d).name)
def test_split_stores_answers_of_any_integer_dtype_as_int64(default_shifted, dtype):
    # 40 answers: qtype * 40 + answer passes 127 and 255, so an int8 or uint8 column would wrap
    params, ood_s = default_shifted
    narrow = Split(ood_s.answers.astype(dtype), ood_s.features, ood_s.priors, ood_s.role,
                   ood_s.config)
    assert [c.dtype for c in (narrow.answers, narrow.qtypes, narrow.tokens)] == [np.int64] * 3
    assert evaluate(params, narrow).to_dict() == evaluate(params, ood_s).to_dict()
    assert np.array_equal(build_prior_table(narrow).table, build_prior_table(ood_s).table)


# Traced peak of writing the default 8000-row train split: one 128-row
# block stacked from the four columns, its Python values and its text
# (about 0.18 MB); stacking the whole split first would hold 1.4 MB more.
SAVE_SPLIT_PEAK_BYTES = 200_000


def test_save_split_allocation_peak_is_bounded(tmp_path):
    bench = BenchmarkConfig()
    split = generate_split(build_priors(bench)[0], bench.n_train, "train", bench)
    assert _traced_peak(save_split, split, tmp_path / "train.split") <= SAVE_SPLIT_PEAK_BYTES


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


def test_report_emission_is_byte_stable(tmp_path, sweep_rows):
    rows, _ = sweep_rows
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(rows, a)
    emit_report(rows, b)
    assert a.read_bytes() == b.read_bytes()


def test_report_has_one_format(tmp_path, sweep_rows):
    """json is the only report format, so ``emit_report`` takes no format to choose."""
    rows, _ = sweep_rows
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        emit_report(rows, path, format="json")
    assert not path.exists()


def _no_constant(token):
    raise ValueError(f"report holds the non-JSON constant {token}")


def _read_json_report(path):
    """A json report parsed strictly: NaN and +-Infinity are refused."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


def test_json_report_layout(tmp_path, sweep_rows):
    rows, _ = sweep_rows
    path = tmp_path / "report.json"
    emit_report(rows, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n") and not text.endswith("\n\n")
    payload = _read_json_report(path)
    assert sorted(payload) == ["format_version", "rows"]
    assert payload["format_version"] == REPORT_FORMAT_VERSION
    assert [row["gamma"] for row in payload["rows"]] == [r.gamma for r in rows]
    for row in payload["rows"]:
        assert sorted(row) == ["gamma", "id", "ood"]
        for side in ("id", "ood"):
            assert sorted(row[side]) == sorted(f.name for f in fields(EvalReport))


@pytest.mark.parametrize("name", [f.name for f in fields(EvalReport)])
def test_json_report_keeps_every_field_exactly(tmp_path, sweep_rows, name):
    rows, _ = sweep_rows
    path = tmp_path / "report.json"
    emit_report(rows, path)
    for got, want in zip(_read_json_report(path)["rows"], rows):
        for side, report in (("id", want.id_report), ("ood", want.ood_report)):
            value = getattr(report, name)
            if isinstance(value, np.ndarray):
                written = np.asarray(got[side][name])
                assert written.shape == value.shape
                assert written.dtype.kind == value.dtype.kind  # counts stay integers
                assert np.array_equal(written, value)
            else:
                assert isinstance(got[side][name], int) == isinstance(value, (int, np.integer))
                assert got[side][name] == value


def test_report_without_train_priors_leaves_that_kl_empty(toy, tmp_path):
    _, _, id_s, ood_s, mc = toy
    params = init_params(mc)
    row = SweepRow(gamma=0.0, id_report=evaluate(params, id_s), ood_report=evaluate(params, ood_s))
    path = tmp_path / "report.json"
    emit_report([row], path)
    written = _read_json_report(path)["rows"][0]
    assert written["id"]["kl_to_train_prior"] is None
    assert written["ood"]["kl_to_train_prior"] is None


# ---------------------------------------------------------------------------
# pinned checkpoints
# ---------------------------------------------------------------------------

# SHA-256 of checkpoints trained for 3 epochs on a 1000-sample default
# split, recorded before the training step was fused (per-tensor Adam,
# np.add.at embedding backward, softmax recomputed per consumer).  Floats
# may round differently under another BLAS or numpy build, or another
# kernel of the same OpenBLAS (tests/test_blas_kernels.py), so the pins
# hold only for the build and the run-time kernel they were recorded with.
PINNED_BUILD = {"numpy": "2.4.6", "blas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                                           "NO_AFFINITY Haswell MAX_THREADS=64",
                "kernel": "SkylakeX"}
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
    return {"numpy": np.__version__, "blas": blas.get("openblas configuration"),
            "kernel": openblas_corename()}


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


# SHA-256 of the three split files of a 40-sample default benchmark: 5
# samples per question type over 5 answers leave 16 of the 40 cells empty
# in each split.  Recorded while generate_split still built its columns
# from per-cell Python lists.
PINNED_SMALL_SPLITS = {
    "train": "fae26621ca086930daa93f6e294ffc5f9406f676cf50289e3aeaca4046f05274",
    "id_test": "ab903475ab828b9630b3e096379d8a44913af50190accad7582e03e512d04ed3",
    "ood_test": "7bcd6641f5b4dd2a5dac97cf678a9767306c6a9d0f6b964616a08bbd905c83c9",
}


@pytest.mark.skipif(_numpy_build() != PINNED_BUILD,
                    reason=f"numpy/BLAS build {_numpy_build()} differs from the pinned {PINNED_BUILD}")
def test_small_benchmark_with_empty_cells_matches_pinned_digests(tmp_path):
    splits = make_benchmark(BenchmarkConfig(n_train=40, n_test=40, seed=0))
    for (name, pinned), split in zip(PINNED_SMALL_SPLITS.items(), splits):
        assert (np.bincount(split.answers, minlength=split.num_answers) == 0).sum() == 16, name
        save_split(split, tmp_path / name)
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned, name


# SHA-256 of the json report ``emit_report`` writes for one row holding
# the in-distribution and shifted reports (with train priors) of the
# pinned 3-epoch models above, each scored on a default-size 4000-sample
# test split.  Recorded while ``evaluate`` still built a full autodiff
# graph; the forward pass may change how it allocates, never what it
# computes.
PINNED_REPORTS = {
    "0-ce": "90d0ae3a72a793be371a64b4cc272463f4c317e8ef9d481df3de96bfd1110c26",
    "0-lpf5": "daf2ec14595a058780827972cb8723bf0cb3a5b15d2817132afa4d6fda89ed8b",
    "0-focal": "ccdc8f245badceafeb937a5b11cd8da7b57e0e31ca3c7502d6d61fc70ed9b531",
    "0-precomputed": "02337971e5ddd959daa13e4af6cf5ab59ee4b6976a77a273ec5fa11cb11085ed",
    "1-ce": "9588bfc5ba6d20dfc6c0c84539d5e48fd259b0dc1a9b2531fe7e81a7a91fbae0",
    "1-lpf5": "086ade35cc89b396262c5f83c31c2a68877b190008e486026a1b195e35abda8d",
    "1-focal": "8549df93ca0d112811f88607f3411acf084a87f4c93bc9876a8c2305df41e0d6",
    "1-precomputed": "9221a4cd74c93a7616705f8a5e5e23af80dbf66b8d045852af12ba40959c2bbb",
    "2-ce": "f2ce6fa35a539fd755eff8dbcd074c1f0c4a054dc81683f03f16c2c4c067253b",
    "2-lpf5": "2675548407d98e28f946b097a2db9e993b49bbf6440fb560ba274bebdcf9f4f1",
    "2-focal": "1452265ff788979da7a57110e1dad0097de3e785f0ba34fb7e525c83b6bad990",
    "2-precomputed": "6e5c1db23638e0f0e9036523147c88cf041aa83cc884f6d26548699302a37150",
    "3-ce": "ac9f35c84be974405517ef440b2587080a5a0e3b11dcbec33e6b6a0a841fc220",
    "3-lpf5": "049112412d465fa17fcfd16a585e775a77c22765cb51d95ce1542cec4a3dc6c6",
    "3-focal": "cfb1eb232cd0769ff67dd71b633f875f94a1bca63808d341407647337a61fbe1",
    "3-precomputed": "048607a5864cce8205c526aaa1e2afb550d3a8d9f44273b83755b334e3be88e5",
    "4-ce": "85e6bd42086c6766ee469f4611d67ef9f26512003d1d070ffa6bf2807094259a",
    "4-lpf5": "bdd02a10cf9104fff3b502c5d7e6b7abbb8f80f8b058653ccc0d72b6f3c5a1d1",
    "4-focal": "a2c89e69e87caed284a2ad4469091c64af3568dbe96a42e49d55f425ec961663",
    "4-precomputed": "4e93458af4d16c7aa853a00a0b4dc9fe23eb959e679daf5a4d856361dff5aa81",
}


@pytest.mark.skipif(_numpy_build() != PINNED_BUILD,
                    reason=f"numpy/BLAS build {_numpy_build()} differs from the pinned {PINNED_BUILD}")
@pytest.mark.parametrize("seed", range(5))
def test_eval_reports_match_pinned_digests(seed, tmp_path):
    train_s, id_s, ood_s = make_benchmark(BenchmarkConfig(seed=seed, n_train=1000))
    for name, variant in PINNED_VARIANTS.items():
        config = TrainConfig(variant=variant, model=model_config_for(train_s.config, seed),
                             epochs=3, seed=seed)
        params, _ = train(train_s, config)
        row = SweepRow(gamma=variant.gamma,
                       id_report=evaluate(params, id_s, train_priors=train_s.priors),
                       ood_report=evaluate(params, ood_s, train_priors=train_s.priors))
        path = tmp_path / f"{name}.json"
        emit_report([row], path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_REPORTS[f"{seed}-{name}"], name
