"""Loss functions for bias-aware training.

The main classification loss is a per-sample reweighted cross entropy:
each sample's weight is (1 - alpha)^gamma, where alpha is the probability
the question-only head assigns to the true answer.  Samples the question
alone already answers get alpha near 1 and are down-weighted toward zero;
samples that need the image keep weight near 1.

:func:`batch_objective`, which trains, is the one place alpha is picked:
the question-only head for ce and lpf, the main head's own prediction for
focal (the multi-class focal rule), both through :func:`alpha_from_qo`,
and a per-question-type answer table for precomputed.  It then calls
:func:`beta` and ``weighted_cross_entropy`` (the body of :func:`lpf_loss`;
the weights go into the record), :func:`qo_loss` and :func:`total_loss`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    _check_targets,
    add,
    softmax_parts,
    weighted_cross_entropy,
)
from .errors import ConfigError, ShapeError, bounded, check_fields
from .synthbench import PriorTable, qtype_counts


# every loss variant and its pinned gamma; None: the variant takes the gamma it is given
VARIANT_GAMMAS = {"ce": 0.0, "lpf": None, "focal": 1.0, "precomputed": 1.0}


@dataclass(frozen=True)
class LossVariant:
    """Which alpha source to use and how aggressively to down-weight.

    ``kind`` is a key of :data:`VARIANT_GAMMAS`, which pins ``gamma`` for
    every variant but lpf, the one that sweeps it.
    """
    kind: str
    gamma: float = bounded(0.0, 0.0)

    def __post_init__(self):
        if self.kind not in tuple(VARIANT_GAMMAS):  # a tuple: an unhashable kind is unknown too
            raise ConfigError(f"unknown loss variant {self.kind!r}, choose from {', '.join(VARIANT_GAMMAS)}")
        check_fields(self)
        if (pinned := VARIANT_GAMMAS[self.kind]) is not None:
            object.__setattr__(self, "gamma", pinned)

    @classmethod
    def ce(cls) -> "LossVariant":
        return cls("ce")

    @classmethod
    def lpf(cls, gamma: float) -> "LossVariant":
        return cls("lpf", gamma)

    @classmethod
    def focal(cls) -> "LossVariant":
        return cls("focal")

    @classmethod
    def precomputed(cls) -> "LossVariant":
        return cls("precomputed")


@dataclass
class BatchLossRecord:
    """Per-batch observability: what the reweighting actually did."""
    alpha: np.ndarray   # per-sample bias factor
    beta: np.ndarray    # per-sample weight (1 - alpha)^gamma
    lpf: float          # reweighted classification loss (batch mean)
    qo: float           # question-only loss (batch mean)
    total: float


def alpha_from_qo(logits_qo: Tensor, targets) -> np.ndarray:
    """Bias factor: softmax probability of the true answer, as a constant.

    The result is a plain array with no graph attached, so nothing that
    consumes it can backpropagate into the question-only head.
    """
    if logits_qo.data.ndim != 2:
        raise ShapeError(f"expected [B, A] logits, got shape {logits_qo.data.shape}")
    t = _check_targets(targets, logits_qo.data.shape[1])
    return softmax_parts(logits_qo)[0][np.arange(len(t)), t]


def beta(alpha, gamma: float):
    """Modulating weight (1 - alpha)^gamma, of alpha's shape; 1 when gamma is 0."""
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    a = np.asarray(alpha, dtype=np.float64)
    if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got range [{a.min()}, {a.max()}]")
    return np.power(1.0 - a, gamma)


def lpf_loss(logits_vqa: Tensor, targets, alpha, gamma: float) -> Tensor:
    """Reweighted classification loss with constant per-sample weights."""
    return weighted_cross_entropy(logits_vqa, targets, beta(alpha, gamma))


def qo_loss(logits_qo: Tensor, targets) -> Tensor:
    """Plain mean cross entropy on the question-only logits."""
    batch = logits_qo.data.shape[0]
    return weighted_cross_entropy(logits_qo, targets, np.ones(batch))


def total_loss(l_lpf: Tensor, l_qo: Tensor) -> Tensor:
    """Unweighted sum of the two branch losses."""
    return add(l_lpf, l_qo)


def build_prior_table(split) -> PriorTable:
    """Empirical per-question-type answer distribution of a split: normalized
    counts over the full answer vocabulary.  Raises ValueError unless every
    question type occurs (:func:`qtype_counts`) and every answer id is in range."""
    totals = qtype_counts(split)
    k, a = split.num_qtypes, split.num_answers
    if not (split.answers.min() >= 0 and split.answers.max() < a):  # else it counts in another row
        raise ValueError(f"answer ids must lie in [0, {a})")
    counts = np.bincount(split.qtypes * a + split.answers, minlength=k * a).reshape(k, a)
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
    # the question-only loss goes first: it checks the targets alpha is read at
    l_qo = qo_loss(logits_qo, t)
    if variant.kind == "precomputed":
        if priors is None or qtype_ids is None:
            raise ValueError("precomputed alpha needs a prior table and question-type ids")
        q = np.asarray(qtype_ids)
        if q.size and (q.min() < 0 or q.max() >= priors.num_qtypes):  # numpy would read row -1
            raise KeyError(f"no prior row for question type {q.max()} (have {priors.num_qtypes})")
        alpha = priors.table[q, _check_targets(t, priors.num_answers)]
    else:
        alpha = alpha_from_qo(logits_vqa if variant.kind == "focal" else logits_qo, t)
    weights = beta(alpha, variant.gamma)
    l_lpf = weighted_cross_entropy(logits_vqa, t, weights)
    total = total_loss(l_lpf, l_qo)
    record = BatchLossRecord(
        alpha=alpha,
        beta=weights,
        lpf=float(l_lpf.data),
        qo=float(l_qo.data),
        total=float(total.data),
    )
    return total, record
