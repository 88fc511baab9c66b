"""Loss functions: bias factors, modulating weights, variants, prior tables."""
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from debiasvqa import (
    LossVariant,
    PriorTable,
    Tensor,
    VariantKind,
    alpha_from_qo,
    batch_objective,
    beta,
    build_prior_table,
    lpf_loss,
    qo_loss,
    total_loss,
    variant_alpha,
)
from debiasvqa.autodiff import (
    Parameter,
    cross_entropy_per_sample,
    grad_check,
    linear,
    softmax_parts,
    zero_grad,
)
from debiasvqa.cli import model_config_for
from debiasvqa.harness import TrainConfig, epoch_order, forward_batch
from debiasvqa.model import init_params
from debiasvqa.errors import ConfigError, ShapeError

SOFTMAX_123_LAST = 0.6652409557748219  # e^3 / (e + e^2 + e^3)
LN_4 = 1.3862943611198906


def logits_with_ce(ce: float) -> np.ndarray:
    """Two-class logits [0, z] whose cross entropy on target 1 equals ce."""
    p = math.exp(-ce)
    z = math.log(p / (1.0 - p))
    return np.array([[0.0, z]])


@dataclass
class FakeSplit:
    qtypes: np.ndarray
    answers: np.ndarray
    num_qtypes: int
    num_answers: int


# ---------------------------------------------------------------------------
# LossVariant
# ---------------------------------------------------------------------------

def test_variant_gamma_validation():
    with pytest.raises(ValueError):
        LossVariant.lpf(-0.5)
    assert LossVariant.lpf(5.0).gamma == 5.0


def test_ce_focal_and_precomputed_pin_gamma():
    assert LossVariant.focal().gamma == 1.0
    assert LossVariant.precomputed().gamma == 1.0
    assert LossVariant(VariantKind.FOCAL, 3.0).gamma == 1.0
    assert LossVariant(VariantKind.PRECOMPUTED, 0.2).gamma == 1.0
    assert LossVariant(VariantKind.CE, 3.0).gamma == 0.0


def test_variant_kind_is_checked():
    assert LossVariant("lpf", 2.0) == LossVariant.lpf(2.0)
    assert LossVariant("focal").kind is VariantKind.FOCAL
    with pytest.raises(ConfigError, match="unknown loss variant 'bogus'"):
        LossVariant("bogus", 0.3)


# ---------------------------------------------------------------------------
# PriorTable
# ---------------------------------------------------------------------------

def test_prior_table_accepts_valid_rows():
    t = PriorTable([[0.8, 0.15, 0.05], [0.2, 0.3, 0.5]])
    assert t.num_qtypes == 2 and t.num_answers == 3
    assert np.array_equal(t.row(0), [0.8, 0.15, 0.05])


def test_prior_table_rejects_negative_and_unnormalized():
    with pytest.raises(ValueError):
        PriorTable([[-0.1, 1.1]])
    with pytest.raises(ValueError):
        PriorTable([[0.6, 0.5]])


def test_prior_table_missing_row_rejected():
    t = PriorTable([[1.0, 0.0]])
    with pytest.raises(KeyError):
        t.row(1)


# ---------------------------------------------------------------------------
# alpha_from_qo
# ---------------------------------------------------------------------------

def test_alpha_uniform_logits():
    a = alpha_from_qo(Tensor(np.zeros((3, 4))), [0, 1, 3])
    assert np.allclose(a, 0.25, atol=1e-15)


def test_alpha_saturates_at_large_margin():
    logits = np.zeros((1, 5))
    logits[0, 2] = 20.0
    a = alpha_from_qo(Tensor(logits), [2])
    assert a[0] > 0.999999


def test_alpha_direct_arithmetic():
    a = alpha_from_qo(Tensor(np.array([[1.0, 2.0, 3.0]])), [2])
    assert abs(a[0] - SOFTMAX_123_LAST) < 1e-15


def test_alpha_rejects_bad_target():
    with pytest.raises(ShapeError):
        alpha_from_qo(Tensor(np.zeros((1, 3))), [3])


def test_alpha_is_detached():
    a = alpha_from_qo(Tensor(np.zeros((2, 3))), [0, 1])
    assert isinstance(a, np.ndarray)


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_fully_biased_sample_gets_zero_weight():
    assert beta(1.0, 1.0) == 0.0


def test_beta_gamma_zero_disables_reweighting():
    for a in (0.0, 0.3, 0.999, 1.0):
        assert beta(a, 0.0) == 1.0


def test_beta_banana_value():
    assert abs(beta(0.81, 1.0) - 0.19) < 1e-15


def test_beta_rejects_out_of_range():
    with pytest.raises(ValueError):
        beta(1.5, 1.0)
    with pytest.raises(ValueError):
        beta(-0.1, 1.0)
    with pytest.raises(ValueError):
        beta(0.5, -1.0)


def test_beta_monotone_in_alpha():
    alphas = np.linspace(0.0, 1.0, 41)
    values = beta(alphas, 2.5)
    diffs = np.diff(values)
    assert (diffs <= 0.0).all()
    # strict decrease wherever the larger alpha is below 1
    assert (diffs[:-1] < 0.0).all()


def test_beta_monotone_in_gamma():
    for alpha in (0.1, 0.5, 0.9):
        gammas = [0.5, 1.0, 2.0, 5.0]
        values = [beta(alpha, g) for g in gammas]
        assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# lpf_loss and the worked reweighting example
# ---------------------------------------------------------------------------

def test_lpf_loss_downweights_biased_sample():
    logits = logits_with_ce(0.2856)
    loss = lpf_loss(Tensor(logits), [1], np.array([0.81]), gamma=1.0)
    assert abs(float(loss.data) - 0.054264) < 1e-9


def test_lpf_loss_keeps_unbiased_sample():
    logits = logits_with_ce(0.0916)
    loss = lpf_loss(Tensor(logits), [1], np.array([0.13]), gamma=1.0)
    assert abs(float(loss.data) - 0.079692) < 1e-9


def test_lpf_loss_gamma_zero_is_plain_ce_bitwise():
    rng = np.random.default_rng(21)
    logits = rng.normal(size=(7, 5))
    targets = rng.integers(0, 5, size=7)
    alpha = rng.random(7)
    weighted = lpf_loss(Tensor(logits), targets, alpha, gamma=0.0)
    plain = float(cross_entropy_per_sample(logits, targets).mean())
    assert float(weighted.data) == plain


def test_gamma_zero_gradients_identical():
    rng = np.random.default_rng(22)
    w_a = Parameter(rng.normal(size=(4, 5)))
    w_b = Parameter(w_a.data.copy())
    x = rng.normal(size=(6, 4))
    targets = rng.integers(0, 5, size=6)
    alpha = rng.random(6)

    lpf_loss(linear(Tensor(x), w_a), targets, alpha, gamma=0.0).backward()
    lpf_loss(linear(Tensor(x), w_b), targets, np.zeros(6), gamma=1.0).backward()
    assert np.array_equal(w_a.grad, w_b.grad)
    zero_grad([w_a, w_b])


def test_loss_sandwich():
    rng = np.random.default_rng(23)
    logits = rng.normal(size=(10, 6)) * 3.0
    targets = rng.integers(0, 6, size=10)
    alpha = rng.random(10)
    ce = float(cross_entropy_per_sample(logits, targets).mean())
    for gamma in (0.5, 1.0, 5.0):
        val = float(lpf_loss(Tensor(logits), targets, alpha, gamma).data)
        assert 0.0 <= val <= ce


def test_alpha_saturation_kills_contribution():
    logits = np.array([[0.0, 1.0]])
    previous = np.inf
    for margin in (2.0, 5.0, 10.0, 20.0):
        alpha = 1.0 / (1.0 + math.exp(-margin))  # qo margin -> alpha toward 1
        val = float(lpf_loss(Tensor(logits), [1], np.array([alpha]), gamma=2.0).data)
        assert val < previous
        previous = val
    assert previous < 1e-8


# ---------------------------------------------------------------------------
# qo_loss / total_loss
# ---------------------------------------------------------------------------

def test_qo_loss_perfect_prediction():
    logits = np.zeros((1, 4))
    logits[0, 1] = 60.0
    assert float(qo_loss(Tensor(logits), [1]).data) < 1e-12


def test_qo_loss_uniform():
    assert abs(float(qo_loss(Tensor(np.zeros((3, 4))), [0, 1, 2]).data) - LN_4) < 1e-12


def test_total_loss_values():
    a, b = Tensor(np.asarray(0.5)), Tensor(np.asarray(0.3))
    assert abs(float(total_loss(a, b).data) - 0.8) < 1e-15
    x = Tensor(np.asarray(1.7))
    assert float(total_loss(x, Tensor(np.asarray(0.0))).data) == 1.7


def test_total_loss_gradient_is_sum_of_gradients():
    rng = np.random.default_rng(24)
    w = Parameter(rng.normal(size=(3, 4)))
    x1 = rng.normal(size=(2, 3))
    x2 = rng.normal(size=(2, 3))

    def f():
        l1 = qo_loss(linear(Tensor(x1), w), [0, 1])
        l2 = qo_loss(linear(Tensor(x2), w), [2, 3])
        return total_loss(l1, l2)

    assert grad_check(f, [w]) < 1e-5


# ---------------------------------------------------------------------------
# variant_alpha
# ---------------------------------------------------------------------------

def test_precomputed_alpha_is_table_lookup():
    priors = PriorTable([[0.8, 0.15, 0.05]])
    a = variant_alpha(VariantKind.PRECOMPUTED, [0], priors=priors, qtype_ids=[0])
    assert a[0] == 0.8


def test_focal_alpha_from_vqa_logits():
    a = variant_alpha(VariantKind.FOCAL, [2], logits_vqa=Tensor(np.zeros((1, 4))))
    assert np.allclose(a, 0.25, atol=1e-15)


def test_focal_tracks_logits_precomputed_does_not():
    priors = PriorTable([[0.6, 0.4]])
    logits1 = Tensor(np.array([[0.0, 0.0]]))
    logits2 = Tensor(np.array([[3.0, -1.0]]))
    f1 = variant_alpha(VariantKind.FOCAL, [0], logits_vqa=logits1)
    f2 = variant_alpha(VariantKind.FOCAL, [0], logits_vqa=logits2)
    assert f1[0] != f2[0]
    p1 = variant_alpha(VariantKind.PRECOMPUTED, [0], priors=priors, qtype_ids=[0])
    p2 = variant_alpha(VariantKind.PRECOMPUTED, [0], priors=priors, qtype_ids=[0])
    assert p1[0] == p2[0] == 0.6


def test_variant_alpha_missing_prior_row_rejected():
    priors = PriorTable([[1.0, 0.0]])
    with pytest.raises(KeyError):
        variant_alpha(VariantKind.PRECOMPUTED, [0], priors=priors, qtype_ids=[1])


def test_ce_and_lpf_alpha_read_the_question_only_head():
    rng = np.random.default_rng(30)
    logits_vqa, logits_qo = Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(5, 6)))
    targets = rng.integers(0, 6, size=5)
    expected = alpha_from_qo(logits_qo, targets)
    parts = (softmax_parts(logits_vqa.data), softmax_parts(logits_qo.data))
    for kind in (VariantKind.CE, VariantKind.LPF):
        assert np.array_equal(variant_alpha(kind, targets, logits_vqa, logits_qo), expected)
        assert np.array_equal(variant_alpha(kind, targets, logits_vqa, logits_qo, parts=parts),
                              expected)
        with pytest.raises(ValueError):
            variant_alpha(kind, targets, logits_vqa=logits_vqa)


# ---------------------------------------------------------------------------
# build_prior_table
# ---------------------------------------------------------------------------

def test_build_prior_table_counts():
    answers = np.repeat([0, 1, 2], [80, 15, 5])
    table = build_prior_table(FakeSplit(np.zeros(100, dtype=np.int64), answers, 1, 3))
    assert np.array_equal(table.table, [[0.8, 0.15, 0.05]])


def test_build_prior_table_single_sample_one_hot():
    table = build_prior_table(FakeSplit(np.array([0]), np.array([2]), 1, 4))
    assert np.array_equal(table.table, [[0.0, 0.0, 1.0, 0.0]])


def test_build_prior_table_empty_rejected():
    with pytest.raises(ValueError):
        empty = np.array([], dtype=np.int64)
        build_prior_table(FakeSplit(empty, empty, 1, 2))


def test_build_prior_table_missing_qtype_rejected():
    with pytest.raises(ValueError):
        build_prior_table(FakeSplit(np.array([0]), np.array([0]), 2, 2))


# ---------------------------------------------------------------------------
# batch_objective
# ---------------------------------------------------------------------------

def _random_batch(rng, batch=5, n_answers=6):
    logits_vqa = Parameter(rng.normal(size=(batch, n_answers)))
    logits_qo = Parameter(rng.normal(size=(batch, n_answers)))
    targets = rng.integers(0, n_answers, size=batch)
    return logits_vqa, logits_qo, targets


def test_batch_objective_record_invariants():
    rng = np.random.default_rng(25)
    logits_vqa, logits_qo, targets = _random_batch(rng)
    variant = LossVariant.lpf(3.0)
    total, record = batch_objective(logits_vqa, logits_qo, targets, variant)
    assert np.abs(record.beta - (1.0 - record.alpha) ** 3.0).max() < 1e-12
    assert abs(record.total - (record.lpf + record.qo)) < 1e-12
    assert float(total.data) == record.total


def test_batch_objective_ce_has_unit_weights():
    rng = np.random.default_rng(26)
    logits_vqa, logits_qo, targets = _random_batch(rng)
    _, record = batch_objective(logits_vqa, logits_qo, targets, LossVariant.ce())
    assert np.array_equal(record.beta, np.ones(5))
    assert record.alpha.shape == (5,)  # logged for observability
    assert abs(record.lpf - float(cross_entropy_per_sample(logits_vqa.data, targets).mean())) < 1e-12


def test_batch_objective_focal_uses_vqa_probabilities():
    rng = np.random.default_rng(27)
    logits_vqa, logits_qo, targets = _random_batch(rng)
    _, record = batch_objective(logits_vqa, logits_qo, targets, LossVariant.focal())
    expected = alpha_from_qo(logits_vqa, targets)
    assert np.array_equal(record.alpha, expected)


def test_batch_objective_precomputed_requires_inputs():
    rng = np.random.default_rng(28)
    logits_vqa, logits_qo, targets = _random_batch(rng)
    with pytest.raises(ValueError):
        batch_objective(logits_vqa, logits_qo, targets, LossVariant.precomputed())


def test_batch_objective_qo_gradient_unaffected_by_gamma():
    # L_QO is variant-independent: the qo branch trains identically
    rng = np.random.default_rng(29)
    base = rng.normal(size=(4, 5))
    targets = rng.integers(0, 5, size=4)
    grads = []
    for variant in (LossVariant.ce(), LossVariant.lpf(5.0)):
        qo = Parameter(base.copy())
        vqa = Parameter(rng.normal(size=(4, 5)))
        total, _ = batch_objective(vqa, qo, targets, variant)
        total.backward()
        grads.append(qo.grad.copy())
    assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("variant, head, gamma", [
    (LossVariant.ce(), "qo", 0.0),
    (LossVariant.lpf(5.0), "qo", 5.0),
    (LossVariant.focal(), "vqa", 1.0),
    (LossVariant.precomputed(), None, 1.0),
], ids=["ce", "lpf5", "focal", "precomputed"])
def test_batch_objective_gradients_equal_the_gated_composition(default_benchmark, variant,
                                                               head, gamma):
    # training runs batch_objective; gates 2 and 3 check this composition
    config, train_split, _, _ = default_benchmark
    params = init_params(model_config_for(config, 0))
    tc = TrainConfig(variant=variant, model=params.config)
    idx = epoch_order(tc, 0, len(train_split))[:tc.batch_size]
    targets, qtypes = train_split.answers[idx], train_split.qtypes[idx]
    priors = build_prior_table(train_split)

    def composed(logits_vqa, logits_qo):
        if head is None:
            alpha = variant_alpha(variant.kind, targets, priors=priors, qtype_ids=qtypes)
        else:
            alpha = alpha_from_qo(logits_vqa if head == "vqa" else logits_qo, targets)
        return total_loss(lpf_loss(logits_vqa, targets, alpha, gamma),
                          qo_loss(logits_qo, targets))

    def trained(logits_vqa, logits_qo):
        return batch_objective(logits_vqa, logits_qo, targets, variant,
                               priors=priors, qtype_ids=qtypes)[0]

    results = []
    for objective in (trained, composed):
        loss = objective(*forward_batch(params, train_split.tokens[idx],
                                        train_split.features[idx]))
        loss.backward()
        results.append((float(loss.data), {n: params[n].grad.copy() for n in params.names()}))
        zero_grad(params.all_parameters())
    (got_loss, got), (want_loss, want) = results
    assert got_loss == want_loss
    for name in params.names():
        assert np.array_equal(got[name], want[name]), name
