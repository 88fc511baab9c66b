"""Training loop, evaluation metrics, gamma sweeps, and report output.

Training runs both model branches on every batch, combines their losses
per the configured variant, and takes one Adam step on all parameters.
Evaluation uses only the main (visual) path; the question-only head
exists purely to shape the training signal.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .autodiff import Tensor, _one_blas_thread, adam_step, zero_grad
from .errors import ConfigError, NumericalError, bounded, check_fields
from .model import (
    ModelConfig,
    VqaModelParams,
    encode_question,
    encode_visual,
    init_params,
    predict_qo,
    predict_vqa,
)
from .objectives import LossVariant, batch_objective, build_prior_table
from .rng import mix_seed, uniform_stream
from .synthbench import PriorTable, Split, qtype_counts

REPORT_FORMAT_VERSION = 1

EVAL_BLOCK_ROWS = 1024  # rows per evaluate forward: small enough for the allocator to reuse its pages


@dataclass(frozen=True)
class TrainConfig:
    variant: LossVariant
    model: ModelConfig
    lr: float = bounded(0.0, 3e-4, above=True)
    batch_size: int = bounded(1, 256)
    epochs: int = bounded(0, 21)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class EpochStats:
    mean_lpf: float
    mean_qo: float
    mean_alpha: float
    mean_beta: float
    train_accuracy: float


@dataclass
class EvalReport:
    overall_accuracy: float
    per_qtype_accuracy: np.ndarray         # [K]
    per_qtype_counts: np.ndarray           # [K]
    predicted_distribution: np.ndarray     # [K, A], rows sum to 1
    kl_to_split_prior: np.ndarray          # [K]
    kl_to_train_prior: np.ndarray | None   # [K] given train priors
    sample_count: int

    def to_dict(self) -> dict:
        return {f.name: v.tolist() if isinstance(v := getattr(self, f.name), np.ndarray) else v
                for f in fields(self)}


@dataclass
class SweepRow:
    gamma: float
    id_report: EvalReport
    ood_report: EvalReport


def check_compatible(split: Split, model: ModelConfig) -> None:
    """Reject a split/model pairing before any training step runs."""
    for name in ("num_answers", "vocab_size", "v_in_dim"):
        if getattr(split.config, name) != getattr(model, name):
            raise ConfigError(f"split has {name} {getattr(split.config, name)}, "
                              f"model expects {getattr(model, name)}")


def epoch_order(config: TrainConfig, epoch: int, n: int) -> np.ndarray:
    """Visitation order of the samples for one epoch, reproducible per seed."""
    return uniform_stream(mix_seed(config.seed, "epoch", epoch)).permutation(n)


def forward_batch(params: VqaModelParams, tokens: np.ndarray,
                  features: np.ndarray) -> tuple[Tensor, Tensor]:
    """Both branches' logits for a batch; shares the question encoding."""
    q = encode_question(tokens, params)
    v = encode_visual(features, params)
    return predict_vqa(v, q, params), predict_qo(q, params)


def train(train_split: Split, config: TrainConfig,
          record_hook=None) -> tuple[VqaModelParams, list[EpochStats]]:
    """Run the full training loop; return the trained parameters and one
    :class:`EpochStats` per epoch.

    Every batch takes one Adam step on all parameters of both branches.
    The optional ``record_hook(epoch, step, indices, record)`` fires after
    the backward pass, before the optimizer step.
    """
    check_compatible(train_split, config.model)
    priors = build_prior_table(train_split)  # raises unless every question type occurs
    params = init_params(config.model)
    log = []
    n = len(train_split)
    step = 0
    # a huge step overflows the next forward; the checks below report it
    with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
        for epoch in range(config.epochs):
            order = epoch_order(config, epoch, n)
            sums = {"lpf": 0.0, "qo": 0.0, "alpha": 0.0, "beta": 0.0}
            correct = 0
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                logits_vqa, logits_qo = forward_batch(
                    params, train_split.tokens[idx], train_split.features[idx])
                if not (np.isfinite(logits_vqa.data).all() and np.isfinite(logits_qo.data).all()):
                    raise NumericalError(f"non-finite logits at epoch {epoch}, step {step}")
                targets = train_split.answers[idx]
                total, record = batch_objective(
                    logits_vqa, logits_qo, targets, config.variant,
                    priors=priors, qtype_ids=train_split.qtypes[idx])
                if not np.isfinite(record.total):
                    raise NumericalError(
                        f"non-finite loss {record.total} at epoch {epoch}, step {step}")
                total.backward()
                if record_hook is not None:
                    record_hook(epoch, step, idx, record)
                adam_step([params.flat], config.lr)
                if not np.isfinite(params.flat.data).all():
                    raise NumericalError(
                        f"non-finite parameter after the Adam step at epoch {epoch}, step {step}")
                zero_grad([params.flat])
                b = len(idx)
                sums["lpf"] += record.lpf * b
                sums["qo"] += record.qo * b
                sums["alpha"] += float(record.alpha.sum())
                sums["beta"] += float(record.beta.sum())
                correct += int((logits_vqa.data.argmax(axis=1) == targets).sum())
                step += 1
            log.append(EpochStats(
                mean_lpf=sums["lpf"] / n,
                mean_qo=sums["qo"] / n,
                mean_alpha=sums["alpha"] / n,
                mean_beta=sums["beta"] / n,
                train_accuracy=correct / n,
            ))
    return params, log


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; q is smoothed by 1e-9 and renormalized."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {p.shape} and {q.shape}")
    qs = q + 1e-9
    qs /= qs.sum()
    mask = p > 0.0
    return float((p[mask] * np.log(p[mask] / qs[mask])).sum())


def evaluate(params: VqaModelParams, split: Split,
             train_priors: PriorTable | None = None) -> EvalReport:
    """Accuracy and answer-distribution metrics using the visual path only.

    A split that lacks a question type raises before the forward pass.
    Predictions are argmax over main-model logits, ties toward the lowest
    answer id.  ``train_priors`` adds per-qtype KL from the predicted
    distribution to those priors: how much the model still follows them.
    """
    counts = qtype_counts(split)
    check_compatible(split, params.config)
    frozen = {name: params[name].detach() for name in params.names()}  # no op keeps a graph
    preds = np.empty(len(split), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite parameters overflow
        for rows in (slice(i, i + EVAL_BLOCK_ROWS) for i in range(0, len(split), EVAL_BLOCK_ROWS)):
            q = encode_question(split.tokens[rows], frozen)
            logits = predict_vqa(encode_visual(split.features[rows], frozen), q, frozen).data
            if not np.isfinite(logits).all():
                raise NumericalError("the forward pass gives non-finite logits")
            preds[rows] = logits.argmax(axis=1)
    answers = split.answers
    k, a, qtypes = split.num_qtypes, split.num_answers, split.qtypes
    per_acc = np.bincount(qtypes, weights=preds == answers, minlength=k) / counts
    dist = np.bincount(qtypes * a + preds, minlength=k * a).reshape(k, a) / counts[:, None]

    def kl_to(priors: PriorTable) -> np.ndarray:
        if priors.table.shape != dist.shape:
            raise ConfigError(f"prior table shape {priors.table.shape}, split has {dist.shape}")
        return np.array([kl_divergence(dist[qt], priors.row(qt)) for qt in range(k)])

    return EvalReport(
        overall_accuracy=float((preds == answers).mean()),
        per_qtype_accuracy=per_acc,
        per_qtype_counts=counts,
        predicted_distribution=dist,
        kl_to_split_prior=kl_to(split.priors),
        kl_to_train_prior=None if train_priors is None else kl_to(train_priors),
        sample_count=len(split),
    )


def sweep_gamma(gammas, base_config: TrainConfig,
                splits: tuple[Split, Split, Split]) -> list[SweepRow]:
    """One training run per gamma from a shared seed; reports on both tests.

    ``splits`` is (train, in-distribution test, shifted test).  gamma=0
    reproduces the plain cross-entropy baseline.
    """
    variants = [LossVariant.lpf(float(g)) for g in gammas]  # every gamma checked up front
    if not variants:
        raise ConfigError("gamma sweep needs at least one value")
    train_split, id_test, ood_test = splits
    for role, split in zip(("train", "in-distribution test", "shifted test"), splits):
        for dim in ("num_qtypes", "num_answers", "vocab_size", "v_in_dim"):  # and every shape
            if (has := getattr(split.config, dim)) != (want := getattr(train_split.config, dim)):
                raise ConfigError(f"the {role} split has {dim} {has}, the train split has {want}")
        try:  # and every question type
            qtype_counts(split)
        except ValueError as exc:
            raise ConfigError(f"the {role} split: {exc}") from None
    rows = []
    for variant in variants:
        params, _ = train(train_split, replace(base_config, variant=variant))
        rows.append(SweepRow(
            gamma=variant.gamma,
            id_report=evaluate(params, id_test, train_priors=train_split.priors),
            ood_report=evaluate(params, ood_test, train_priors=train_split.priors),
        ))
    return rows


def emit_report(rows: list[SweepRow], path) -> None:
    """Serialize sweep rows deterministically as json: every field of both
    reports per row, under REPORT_FORMAT_VERSION."""
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "rows": [{
            "gamma": r.gamma,
            "id": r.id_report.to_dict(),
            "ood": r.ood_report.to_dict(),
        } for r in rows],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
