"""Training loop, evaluation metrics, gamma sweeps, and report files.

Training runs both model branches on every batch, combines their losses
per the configured variant, and takes one Adam step on all parameters.
Evaluation uses only the main (visual) path; the question-only head
exists purely to shape the training signal.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, adam_step, zero_grad
from .errors import ConfigError, DataFormatError, NumericalError
from .model import (
    ModelConfig,
    VqaModelParams,
    encode_question,
    encode_visual,
    init_params,
    predict_qo,
    predict_vqa,
)
from .objectives import (
    LossVariant,
    PriorTable,
    VariantKind,
    batch_objective,
    build_prior_table,
)
from .rng import mix_seed, uniform_stream
from .synthbench import Split

REPORT_FORMAT_VERSION = 1

# fixed column order of the comma-separated report format
REPORT_CSV_COLUMNS = (
    "gamma",
    "split",
    "overall_accuracy",
    "mean_kl_to_split_prior",
    "mean_kl_to_train_prior",
    "sample_count",
)


@dataclass(frozen=True)
class TrainConfig:
    variant: LossVariant
    model: ModelConfig
    lr: float = 3e-4
    batch_size: int = 256
    epochs: int = 21
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class EpochStats:
    mean_lpf: float
    mean_qo: float
    mean_alpha: float
    mean_beta: float
    train_accuracy: float


@dataclass
class RunLog:
    variant: LossVariant
    epochs: list[EpochStats] = field(default_factory=list)


@dataclass
class EvalReport:
    overall_accuracy: float
    per_qtype_accuracy: np.ndarray          # [K]
    per_qtype_counts: np.ndarray            # [K]
    predicted_distribution: np.ndarray      # [K, A], rows sum to 1
    kl_to_split_prior: np.ndarray           # [K]
    kl_to_train_prior: np.ndarray | None    # [K], set when train priors given
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "per_qtype_accuracy": self.per_qtype_accuracy.tolist(),
            "per_qtype_counts": self.per_qtype_counts.tolist(),
            "predicted_distribution": self.predicted_distribution.tolist(),
            "kl_to_split_prior": self.kl_to_split_prior.tolist(),
            "kl_to_train_prior": (
                None if self.kl_to_train_prior is None
                else self.kl_to_train_prior.tolist()),
            "sample_count": self.sample_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(
            overall_accuracy=float(_report_field(d, "overall_accuracy", 0)),
            per_qtype_accuracy=_report_field(d, "per_qtype_accuracy", 1),
            per_qtype_counts=_report_field(d, "per_qtype_counts", 1, integral=True),
            predicted_distribution=_report_field(d, "predicted_distribution", 2),
            kl_to_split_prior=_report_field(d, "kl_to_split_prior", 1),
            kl_to_train_prior=(None if d["kl_to_train_prior"] is None
                               else _report_field(d, "kl_to_train_prior", 1)),
            sample_count=int(_report_field(d, "sample_count", 0, integral=True)),
        )


def _report_field(d: dict, key: str, ndim: int, integral: bool = False) -> np.ndarray:
    """A report field as a finite float64 (or exact int64) array of ``ndim`` dimensions.

    Raises ValueError, TypeError or OverflowError on a wrongly typed field.
    """
    value = np.array(d[key], dtype=np.float64)
    if value.ndim != ndim:
        raise ValueError(f"{key!r} must have {ndim} dimension(s), got shape {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{key!r} has a non-finite value")
    if integral and not ((value == np.floor(value)) & (np.abs(value) <= 2 ** 53)).all():
        raise ValueError(f"{key!r} must hold integers of at most 2**53")
    return value.astype(np.int64) if integral else value


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
          record_hook=None) -> tuple[VqaModelParams, RunLog]:
    """Run the full training loop and return trained parameters plus a log.

    Every batch takes one Adam step on all parameters of both branches.
    The optional ``record_hook(epoch, step, indices, record)`` fires after
    the backward pass, before the optimizer step.
    """
    check_compatible(train_split, config.model)
    if len(train_split) == 0:
        raise ValueError("cannot train on an empty split")
    params = init_params(config.model)
    priors = None
    if config.variant.kind == VariantKind.PRECOMPUTED:
        priors = build_prior_table(train_split)
    log = RunLog(variant=config.variant)
    n = len(train_split)
    step = 0
    for epoch in range(config.epochs):
        order = epoch_order(config, epoch, n)
        sums = {"lpf": 0.0, "qo": 0.0, "alpha": 0.0, "beta": 0.0}
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            logits_vqa, logits_qo = forward_batch(
                params, train_split.tokens[idx], train_split.features[idx])
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
        log.epochs.append(EpochStats(
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

    Predictions are argmax over main-model logits with ties broken toward
    the lowest answer id.  When ``train_priors`` is given, the report also
    carries per-qtype KL from the predicted distribution to those priors,
    which measures how much the model still follows the training prior.
    """
    if len(split) == 0:
        raise ValueError("cannot evaluate on an empty split")
    check_compatible(split, params.config)
    q = encode_question(split.tokens, params)
    v = encode_visual(split.features, params)
    logits = predict_vqa(v, q, params).data
    preds = logits.argmax(axis=1)
    answers = split.answers
    k, a, qtypes = split.num_qtypes, split.num_answers, split.qtypes
    counts = np.bincount(qtypes, minlength=k)
    if (counts == 0).any():
        raise ValueError(f"split has no samples for question type {int(np.argmin(counts))}")
    per_acc = np.bincount(qtypes, weights=preds == answers, minlength=k) / counts
    dist = np.bincount(qtypes * a + preds, minlength=k * a).reshape(k, a) / counts[:, None]

    def kl_to(priors: PriorTable) -> np.ndarray:
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
    rows = []
    for variant in variants:
        params, _ = train(train_split, replace(base_config, variant=variant))
        rows.append(SweepRow(
            gamma=variant.gamma,
            id_report=evaluate(params, id_test, train_priors=train_split.priors),
            ood_report=evaluate(params, ood_test, train_priors=train_split.priors),
        ))
    return rows


def emit_report(rows: list[SweepRow], path, format: str = "json") -> None:
    """Serialize sweep rows deterministically.

    ``json`` round-trips through load_report; ``csv`` flattens each row to
    two lines (one per test split) in REPORT_CSV_COLUMNS order.
    """
    if format == "json":
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
        return
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_CSV_COLUMNS)
            for r in rows:
                for split_name, report in (("id", r.id_report), ("ood", r.ood_report)):
                    kl_train = ""
                    if report.kl_to_train_prior is not None:
                        kl_train = repr(float(report.kl_to_train_prior.mean()))
                    writer.writerow([
                        repr(r.gamma),
                        split_name,
                        repr(report.overall_accuracy),
                        repr(float(report.kl_to_split_prior.mean())),
                        kl_train,
                        report.sample_count,
                    ])
        return
    raise ConfigError(f"unknown report format {format!r} (use 'json' or 'csv')")


def load_report(path) -> list[SweepRow]:
    """Read back a json-format report produced by emit_report."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: bad report: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("rows"), list):
        raise DataFormatError(f"{path}: not a report file")
    version = payload.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: report version {version!r}, expected {REPORT_FORMAT_VERSION}")
    try:
        return [SweepRow(
            gamma=float(_report_field(row, "gamma", 0)),
            id_report=EvalReport.from_dict(row["id"]),
            ood_report=EvalReport.from_dict(row["ood"]),
        ) for row in payload["rows"]]
    except KeyError as exc:
        raise DataFormatError(f"{path}: report row missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: bad report row: {exc}") from None
