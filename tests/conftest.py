"""Shared fixtures: toy configurations, the total-loss check builder and
the hypothesis settings every property test runs under."""
import numpy as np
import pytest
from hypothesis import settings

from debiasvqa import (
    BenchmarkConfig,
    ModelConfig,
    Tensor,
    alpha_from_qo,
    lpf_loss,
    make_benchmark,
    predict_qo,
    predict_vqa,
    qo_loss,
    total_loss,
)
from debiasvqa.autodiff import _openblas, softmax_parts
from debiasvqa.model import encode_question, encode_visual

# reproducible property tests: no random seed, no example database, no
# deadline; each test file sets only its max_examples
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


def openblas_corename():
    """Name of the kernel numpy's vendored OpenBLAS picked at run time
    (``SkylakeX``; ``OPENBLAS_CORETYPE`` overrides it), or None when numpy
    ships no such library or it lacks the call."""
    corename = _openblas().get("get_corename")
    return corename().decode() if corename else None


def cross_entropy_per_sample(logits, targets) -> np.ndarray:
    """Unweighted per-sample cross entropy, -log softmax(logits)[i, t_i]."""
    logp = softmax_parts(np.asarray(logits, dtype=np.float64))[1]
    return -logp[np.arange(len(targets)), targets]


def toy_model_config(seed: int) -> ModelConfig:
    """2 question types, 4 answers, every dimension at most 8."""
    return ModelConfig(vocab_size=4, num_answers=4, embed_dim=4, q_dim=4,
                       v_in_dim=4, v_dim=4, hidden_dim=4, qo_hidden_dim=8,
                       seed=seed)


def toy_benchmark_config(seed: int = 0, n_train: int = 64, n_test: int = 32) -> BenchmarkConfig:
    return BenchmarkConfig(num_qtypes=2, answers_per_qtype=2, tokens_per_question=2,
                           v_in_dim=4, n_train=n_train, n_test=n_test, seed=seed)


def frozen_total_loss(params, tokens, feats, targets, gamma):
    """Total-loss closure whose finite differences match training gradients.

    Two quantities are stop-gradients during training: the bias factor
    alpha and the question embedding fed to the question-only head.  A
    naive finite-difference probe would wiggle both, measuring derivative
    terms the training gradient deliberately drops.  This builder freezes
    them at the base point, so the closure's true derivatives coincide
    with the analytic gradients of one training step.
    """
    q_bar = encode_question(tokens, params).data.copy()
    logits_qo_base = predict_qo(Tensor(q_bar), params)
    alpha = alpha_from_qo(logits_qo_base, targets).copy()

    def f():
        q = encode_question(tokens, params)
        v = encode_visual(feats, params)
        logits_vqa = predict_vqa(v, q, params)
        logits_qo = predict_qo(Tensor(q_bar), params)
        return total_loss(lpf_loss(logits_vqa, targets, alpha, gamma),
                          qo_loss(logits_qo, targets))

    return f


@pytest.fixture(scope="session")
def default_benchmark():
    """Default-config splits, generated once per test session."""
    config = BenchmarkConfig()
    train_split, id_test, ood_test = make_benchmark(config)
    return config, train_split, id_test, ood_test


def relu_safe_toy_point(seed: int, margin: float = 2e-4, tries: int = 64):
    """Toy model plus a batch where the total loss is differentiable.

    Central differences are meaningless where a ReLU input sits at its
    kink, and the kink is genuinely reachable here: a fully dead visual
    row drives the multiplicative fusion to exactly zero, which with
    zero-initialized biases parks every fusion pre-activation at 0.0
    (the qo branch's second layer can do the same).  Model and batch are
    redrawn together until every ReLU input clears the kink by a margin
    far wider than any probe-induced shift (at most ~10h for h=1e-5).
    """
    from debiasvqa import init_params

    for attempt in range(tries):
        sub = seed * tries + attempt
        params = init_params(toy_model_config(sub))
        w = {name: params[name].data for name in params.names()}
        tokens, feats, targets = toy_batch(np.random.default_rng(sub),
                                           params.config)
        emb = w["token_embeddings"][tokens].mean(axis=1)
        q = emb @ w["q_enc_w"] + w["q_enc_b"]
        v_pre = feats @ w["v_enc_w"] + w["v_enc_b"]
        joint = ((np.maximum(v_pre, 0.0) @ w["fuse_proj_v"] + w["fuse_proj_v_b"])
                 * (q @ w["fuse_proj_q"]))
        h_pre = joint @ w["fuse_w1"] + w["fuse_b1"]
        qo1 = q @ w["qo_w1"] + w["qo_b1"]
        qo2 = np.maximum(qo1, 0.0) @ w["qo_w2"] + w["qo_b2"]
        if min(np.abs(m).min() for m in (v_pre, h_pre, qo1, qo2)) > margin:
            return params, tokens, feats, targets
    raise RuntimeError(f"no kink-free model/batch pair found for seed {seed}")


def toy_batch(rng: np.random.Generator, config: ModelConfig, batch: int = 6):
    tokens = rng.integers(0, config.vocab_size, size=(batch, 3))
    feats = rng.normal(size=(batch, config.v_in_dim))
    targets = rng.integers(0, config.num_answers, size=batch)
    return tokens, feats, targets
