"""Loss functions for bias-aware training.

The main classification loss is a per-sample reweighted cross entropy:
each sample's weight is (1 - alpha)^gamma, where alpha is the probability
the question-only head assigns to the true answer.  Samples the question
alone already answers get alpha near 1 and are down-weighted toward zero;
samples that need the image keep weight near 1.

:func:`batch_objective`, which trains, composes the public primitives the
gradient tests also build on: one ``softmax_parts`` per head feeds
:func:`variant_alpha`, :func:`lpf_loss` and :func:`qo_loss`, and
:func:`total_loss` sums the two losses.  :func:`variant_alpha` is the one
place alpha is picked: the question-only head for ce and lpf, the main
head's own prediction for focal (the multi-class focal rule), and a
per-question-type answer table for precomputed.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import (
    Tensor,
    _check_targets,
    add,
    softmax_parts,
    weighted_cross_entropy,
)
from .errors import ConfigError, ShapeError


class VariantKind(str, Enum):
    CE = "ce"
    LPF = "lpf"
    FOCAL = "focal"
    PRECOMPUTED = "precomputed"


@dataclass(frozen=True)
class LossVariant:
    """Which alpha source to use and how aggressively to down-weight.

    ``kind`` may be given by its value (``"lpf"``).  ``gamma`` is pinned
    to 0 for plain CE and to 1 for the focal and precomputed variants;
    only the feedback variant sweeps it.
    """
    kind: VariantKind
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in tuple(VariantKind):
            raise ConfigError(f"unknown loss variant {self.kind!r}, choose from {', '.join(VariantKind)}")
        object.__setattr__(self, "kind", VariantKind(self.kind))
        if not 0.0 <= self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if self.kind != VariantKind.LPF:
            object.__setattr__(self, "gamma", 0.0 if self.kind == VariantKind.CE else 1.0)

    @classmethod
    def ce(cls) -> "LossVariant":
        return cls(VariantKind.CE, 0.0)

    @classmethod
    def lpf(cls, gamma: float) -> "LossVariant":
        return cls(VariantKind.LPF, gamma)

    @classmethod
    def focal(cls) -> "LossVariant":
        return cls(VariantKind.FOCAL, 1.0)

    @classmethod
    def precomputed(cls) -> "LossVariant":
        return cls(VariantKind.PRECOMPUTED, 1.0)


class PriorTable:
    """Per-question-type probability rows over the full answer vocabulary."""

    def __init__(self, table: np.ndarray):
        t = np.asarray(table, dtype=np.float64)
        if t.ndim != 2:
            raise ShapeError(f"prior table must be 2-D, got shape {t.shape}")
        if t.size and t.min() < 0.0:
            raise ValueError("prior table has negative entries")
        sums = t.sum(axis=1)
        if t.size and np.abs(sums - 1.0).max() > 1e-9:
            worst = int(np.abs(sums - 1.0).argmax())
            raise ValueError(f"prior row {worst} sums to {sums[worst]}, not 1")
        self.table = t

    @property
    def num_qtypes(self) -> int:
        return self.table.shape[0]

    @property
    def num_answers(self) -> int:
        return self.table.shape[1]

    def row(self, qtype_id: int) -> np.ndarray:
        if not 0 <= qtype_id < self.num_qtypes:
            raise KeyError(f"no prior row for question type {qtype_id} (have {self.num_qtypes})")
        return self.table[qtype_id]

    def __eq__(self, other) -> bool:
        return isinstance(other, PriorTable) and np.array_equal(self.table, other.table)


@dataclass
class BatchLossRecord:
    """Per-batch observability: what the reweighting actually did."""
    ce: np.ndarray      # per-sample unweighted cross entropy
    alpha: np.ndarray   # per-sample bias factor
    beta: np.ndarray    # per-sample weight (1 - alpha)^gamma
    lpf: float          # reweighted classification loss (batch mean)
    qo: float           # question-only loss (batch mean)
    total: float


def alpha_from_qo(logits_qo, targets, parts=None) -> np.ndarray:
    """Bias factor: softmax probability of the true answer, as a constant.

    The result is a plain array with no graph attached, so nothing that
    consumes it can backpropagate into the question-only head.  ``parts``
    is ``softmax_parts`` of the logits when the caller already has it.
    """
    data = logits_qo.data if isinstance(logits_qo, Tensor) else np.asarray(logits_qo, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"expected [B, A] logits, got shape {data.shape}")
    t = _check_targets(targets, data.shape[1])
    return (softmax_parts(data) if parts is None else parts)[0][np.arange(len(t)), t]


def beta(alpha, gamma: float):
    """Modulating weight (1 - alpha)^gamma; 1 when gamma is 0."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    a = np.asarray(alpha, dtype=np.float64)
    if a.size and (a.min() < 0.0 or a.max() > 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got range [{a.min()}, {a.max()}]")
    out = np.power(1.0 - a, gamma)
    return float(out) if np.isscalar(alpha) or np.ndim(alpha) == 0 else out


def lpf_loss(logits_vqa: Tensor, targets, alpha, gamma: float, parts=None) -> Tensor:
    """Reweighted classification loss with constant per-sample weights."""
    return _lpf_loss_and_weights(logits_vqa, targets, alpha, gamma, parts)[0]


def _lpf_loss_and_weights(logits_vqa, targets, alpha, gamma, parts):
    """:func:`lpf_loss` and the weights beta(alpha, gamma) it applied."""
    weights = np.atleast_1d(np.asarray(beta(alpha, gamma), dtype=np.float64))
    return weighted_cross_entropy(logits_vqa, targets, weights, parts=parts), weights


def qo_loss(logits_qo: Tensor, targets, parts=None) -> Tensor:
    """Plain mean cross entropy on the question-only logits."""
    batch = logits_qo.data.shape[0]
    return weighted_cross_entropy(logits_qo, targets, np.ones(batch), parts=parts)


def total_loss(l_lpf: Tensor, l_qo: Tensor) -> Tensor:
    """Unweighted sum of the two branch losses."""
    return add(l_lpf, l_qo)


def variant_alpha(kind: VariantKind, targets, logits_vqa=None, logits_qo=None,
                  priors: PriorTable | None = None, qtype_ids=None,
                  parts=(None, None)) -> np.ndarray:
    """Per-sample alpha of any variant, as a constant.

    CE and LPF read the true-answer probability off the question-only
    logits, FOCAL off the main model's own logits, both through
    :func:`alpha_from_qo`; PRECOMPUTED looks it up in an empirical
    per-question-type answer table.  ``parts`` is the ``softmax_parts``
    of (main, question-only) logits, either of them None to compute it.
    """
    if kind == VariantKind.PRECOMPUTED:
        if priors is None or qtype_ids is None:
            raise ValueError("precomputed alpha needs a prior table and question-type ids")
        q = np.asarray(qtype_ids)
        if q.size and (q.min() < 0 or q.max() >= priors.num_qtypes):
            raise KeyError(f"no prior row for question type {q.max()} (have {priors.num_qtypes})")
        return priors.table[q, _check_targets(targets, priors.num_answers)]
    focal = kind == VariantKind.FOCAL
    logits = logits_vqa if focal else logits_qo
    if logits is None:
        raise ValueError("focal alpha needs the main model logits" if focal
                         else "ce and lpf alpha need the question-only logits")
    return alpha_from_qo(logits, targets, parts[0 if focal else 1])


def build_prior_table(split) -> PriorTable:
    """Empirical per-question-type answer distribution of a split.

    Every question type must occur at least once; rows are normalized
    counts over the full answer vocabulary.
    """
    if len(split.answers) == 0:
        raise ValueError("cannot build a prior table from an empty split")
    counts = np.zeros((split.num_qtypes, split.num_answers))
    np.add.at(counts, (split.qtypes, split.answers), 1.0)
    totals = counts.sum(axis=1)
    if (totals == 0).any():
        missing = int(np.argmin(totals))
        raise ValueError(f"question type {missing} has no samples")
    return PriorTable(counts / totals[:, None])


def batch_objective(logits_vqa: Tensor, logits_qo: Tensor, targets,
                    variant: LossVariant, priors: PriorTable | None = None,
                    qtype_ids=None) -> tuple[Tensor, BatchLossRecord]:
    """Assemble the full training objective for one batch.

    Returns the differentiable total loss plus a record of the per-sample
    quantities, reading each head's one softmax.  For plain CE gamma is
    0, so the weights are identically 1 (alpha is still logged for
    observability).
    """
    t = np.asarray(targets)
    vqa_parts, qo_parts = softmax_parts(logits_vqa.data), softmax_parts(logits_qo.data)
    # the question-only loss goes first: it checks the targets alpha is read at
    l_qo = qo_loss(logits_qo, t, parts=qo_parts)
    alpha = variant_alpha(variant.kind, t, logits_vqa, logits_qo, priors, qtype_ids,
                          parts=(vqa_parts, qo_parts))
    l_lpf, weights = _lpf_loss_and_weights(logits_vqa, t, alpha, variant.gamma, vqa_parts)
    total = total_loss(l_lpf, l_qo)
    record = BatchLossRecord(
        ce=-vqa_parts[1][np.arange(len(t)), t],
        alpha=alpha,
        beta=weights,
        lpf=float(l_lpf.data),
        qo=float(l_qo.data),
        total=float(total.data),
    )
    return total, record
