"""Model: initialization, encoders, fusion, the gradient barrier, checkpoints."""
import numpy as np
import pytest

from conftest import frozen_total_loss, relu_safe_toy_point, toy_batch, toy_model_config
from debiasvqa import (
    ModelConfig,
    Tensor,
    init_params,
    load_checkpoint,
    qo_loss,
    save_checkpoint,
    zero_grad,
)
from debiasvqa.autodiff import grad_check, linear
from debiasvqa.errors import ConfigError, DataFormatError, ShapeError
from debiasvqa.model import (
    VqaModelParams,
    encode_question,
    encode_visual,
    predict_qo,
    predict_vqa,
)
from debiasvqa.objectives import lpf_loss, qo_loss as qo_loss_fn

ENCODER_NAMES = ("token_embeddings", "q_enc_w", "q_enc_b", "v_enc_w", "v_enc_b",
                 "fuse_proj_v", "fuse_proj_v_b", "fuse_proj_q",
                 "fuse_w1", "fuse_b1", "fuse_w2", "fuse_b2")
QO_NAMES = ("qo_w1", "qo_b1", "qo_w2", "qo_b2", "qo_w3", "qo_b3")


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_same_seed_bitwise_identical():
    a = init_params(toy_model_config(seed=3))
    b = init_params(toy_model_config(seed=3))
    for name in a.names():
        assert np.array_equal(a[name].data, b[name].data)


def test_init_different_seeds_differ():
    a = init_params(toy_model_config(seed=0))
    b = init_params(toy_model_config(seed=1))
    assert any(not np.array_equal(a[n].data, b[n].data) for n in a.names())


def test_init_weight_bounds_and_zero_biases():
    config = toy_model_config(seed=5)
    params = init_params(config)
    for name in params.names():
        data = params[name].data
        assert np.isfinite(data).all()
        if data.ndim == 1:
            assert np.array_equal(data, np.zeros_like(data))
        else:
            fan_in = config.embed_dim if name == "token_embeddings" else data.shape[0]
            assert np.abs(data).max() <= 1.0 / np.sqrt(fan_in)


def test_init_fan_in_four_bound():
    # every weight matrix in the toy config has fan_in 4 except qo_w2/qo_w3
    params = init_params(toy_model_config(seed=9))
    assert np.abs(params["q_enc_w"].data).max() <= 0.5
    assert np.abs(params["token_embeddings"].data).max() <= 0.5


def test_model_config_rejects_bad_dims():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0, num_answers=4)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=4, num_answers=1)


@pytest.mark.parametrize("edit, error, message", [
    (lambda tensors: tensors.pop("qo_b3"), ConfigError,
     r"parameter set mismatch: missing=\['qo_b3'\], extra=\[\]"),
    (lambda tensors: tensors.update(qo_b3=tensors["qo_b3"][:-1]), ShapeError,
     r"parameter qo_b3: expected shape \(\d+,\), got \(\d+,\)"),
], ids=["missing-tensor", "wrong-shape"])
def test_params_reject_tensors_that_break_the_config(edit, error, message):
    config = toy_model_config(seed=0)
    params = init_params(config)
    tensors = {name: params[name].data for name in params.names()}
    edit(tensors)
    with pytest.raises(error, match=message):
        VqaModelParams(config, tensors)


# ---------------------------------------------------------------------------
# encode_question
# ---------------------------------------------------------------------------

def test_encode_question_single_token():
    params = init_params(toy_model_config(seed=2))
    q = encode_question(np.array([[1]]), params)
    emb = params["token_embeddings"].data[1]
    expected = emb @ params["q_enc_w"].data + params["q_enc_b"].data
    assert np.array_equal(q.data, expected[None, :])


def test_encode_question_order_invariant():
    params = init_params(toy_model_config(seed=2))
    a = encode_question(np.array([[0, 1, 2, 3]]), params)
    b = encode_question(np.array([[3, 1, 0, 2]]), params)
    assert np.abs(a.data - b.data).max() < 1e-12


def test_encode_question_rejects_bad_tokens():
    params = init_params(toy_model_config(seed=2))
    with pytest.raises(ShapeError):
        encode_question(np.zeros((1, 0), dtype=np.int64), params)
    with pytest.raises(ShapeError):
        encode_question(np.array([[99]]), params)
    with pytest.raises(ShapeError):
        encode_question(np.array([[0.0, 1.0]]), params)


def test_encode_question_embedding_gradient():
    config = toy_model_config(seed=4)
    params = init_params(config)
    rng = np.random.default_rng(0)
    tokens, feats, targets = toy_batch(rng, config)

    def f():
        q = encode_question(tokens, params)
        return qo_loss_fn(linear(q, params["fuse_w1"]), targets % config.num_answers)

    err = grad_check(f, [params["token_embeddings"]])
    assert err < 1e-5


# ---------------------------------------------------------------------------
# encode_visual
# ---------------------------------------------------------------------------

def test_encode_visual_zero_feature_zero_embedding():
    params = init_params(toy_model_config(seed=1))
    v = encode_visual(np.zeros((1, 4)), params)
    assert np.array_equal(v.data, np.zeros((1, 4)))


def test_encode_visual_identity_relu_noop():
    params = init_params(toy_model_config(seed=1))
    params["v_enc_w"].data[...] = np.eye(4)
    params["v_enc_b"].data[...] = 0.0
    x = np.array([[0.5, 0.0, 2.0, 1.0]])
    assert np.array_equal(encode_visual(x, params).data, x)


def test_encode_visual_rejects_bad_length():
    params = init_params(toy_model_config(seed=1))
    with pytest.raises(ShapeError):
        encode_visual(np.zeros((1, 5)), params)


def test_encode_visual_gradient():
    config = toy_model_config(seed=6)
    params = init_params(config)
    rng = np.random.default_rng(1)
    _, feats, targets = toy_batch(rng, config)

    def f():
        v = encode_visual(feats, params)
        return qo_loss_fn(linear(v, params["fuse_proj_v"]), targets)

    assert grad_check(f, [params["v_enc_w"], params["v_enc_b"]]) < 1e-5


# ---------------------------------------------------------------------------
# predict_vqa
# ---------------------------------------------------------------------------

def test_predict_vqa_zero_question_gives_output_bias():
    params = init_params(toy_model_config(seed=3))
    params["fuse_b2"].data[...] = [1.0, -2.0, 0.5, 3.0]
    v = encode_visual(np.ones((1, 4)), params)
    logits = predict_vqa(v, Tensor(np.zeros((1, 4))), params)
    assert np.array_equal(logits.data, [[1.0, -2.0, 0.5, 3.0]])


def test_predict_vqa_all_zero_weights_uniform_softmax():
    from debiasvqa.autodiff import softmax_parts
    params = init_params(toy_model_config(seed=3))
    for name in params.names():
        params[name].data[...] = 0.0
    logits = predict_vqa(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))), params)
    assert np.allclose(softmax_parts(logits.data)[0], 0.25, atol=1e-15)


def test_predict_vqa_hand_computation():
    config = ModelConfig(vocab_size=2, num_answers=2, embed_dim=2, q_dim=2,
                         v_in_dim=2, v_dim=2, hidden_dim=2, qo_hidden_dim=2, seed=0)
    params = init_params(config)
    params["fuse_proj_v"].data[...] = [[1.0, 0.0], [0.0, 2.0]]
    params["fuse_proj_v_b"].data[...] = [0.5, -0.5]
    params["fuse_proj_q"].data[...] = [[1.0, 1.0], [0.0, 1.0]]
    params["fuse_w1"].data[...] = [[1.0, -1.0], [2.0, 0.0]]
    params["fuse_b1"].data[...] = [0.1, 0.2]
    params["fuse_w2"].data[...] = [[1.0, 0.0], [0.0, 1.0]]
    params["fuse_b2"].data[...] = [0.0, 1.0]
    v = np.array([1.0, 2.0])
    q = np.array([3.0, 1.0])
    pv = v @ params["fuse_proj_v"].data + params["fuse_proj_v_b"].data  # [1.5, 3.5]
    pq = q @ params["fuse_proj_q"].data                                  # [3.0, 4.0]
    joint = pv * pq                                                      # [4.5, 14.0]
    hidden = np.maximum(joint @ params["fuse_w1"].data + [0.1, 0.2], 0)  # [32.6, 0]
    expected = hidden @ params["fuse_w2"].data + [0.0, 1.0]
    got = predict_vqa(Tensor(v[None, :]), Tensor(q[None, :]), params)
    assert np.array_equal(got.data, expected[None, :])


def test_predict_vqa_rejects_dim_mismatch():
    params = init_params(toy_model_config(seed=3))
    with pytest.raises(ShapeError):
        predict_vqa(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), params)
    with pytest.raises(ShapeError):
        predict_vqa(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), params)


# ---------------------------------------------------------------------------
# predict_qo and the barrier
# ---------------------------------------------------------------------------

def test_qo_loss_leaves_encoder_untouched():
    config = toy_model_config(seed=7)
    params = init_params(config)
    rng = np.random.default_rng(2)
    tokens, _, targets = toy_batch(rng, config)
    q = encode_question(tokens, params)
    loss = qo_loss(predict_qo(q, params), targets)
    loss.backward()
    for name in ENCODER_NAMES:
        assert np.array_equal(params[name].grad, np.zeros_like(params[name].grad)), name
    assert any(np.abs(params[n].grad).max() > 0.0 for n in QO_NAMES)
    zero_grad(params.all_parameters())


def test_lpf_loss_leaves_qo_branch_untouched():
    config = toy_model_config(seed=8)
    params = init_params(config)
    rng = np.random.default_rng(3)
    tokens, feats, targets = toy_batch(rng, config)
    q = encode_question(tokens, params)
    v = encode_visual(feats, params)
    logits_vqa = predict_vqa(v, q, params)
    alpha = np.full(tokens.shape[0], 0.3)
    loss = lpf_loss(logits_vqa, targets, alpha, gamma=2.0)
    loss.backward()
    for name in QO_NAMES:
        assert np.array_equal(params[name].grad, np.zeros_like(params[name].grad)), name
    for name in ("token_embeddings", "q_enc_w", "v_enc_w",
                 "fuse_proj_v", "fuse_proj_q", "fuse_w1", "fuse_w2"):
        assert np.abs(params[name].grad).max() > 0.0, name
    zero_grad(params.all_parameters())


def test_predict_qo_zero_weights_uniform():
    from debiasvqa.autodiff import softmax_parts
    params = init_params(toy_model_config(seed=0))
    for name in QO_NAMES:
        params[name].data[...] = 0.0
    logits = predict_qo(Tensor(np.ones((1, 4))), params)
    assert np.allclose(softmax_parts(logits.data)[0], 0.25, atol=1e-15)


def test_predict_qo_uses_all_three_layers():
    params = init_params(toy_model_config(seed=11))
    q = Tensor(np.ones((1, 4)))
    base = predict_qo(q, params).data.copy()
    for name in ("qo_w1", "qo_w2", "qo_w3"):
        saved = params[name].data.copy()
        params[name].data += 0.37
        assert not np.array_equal(predict_qo(q, params).data, base), name
        params[name].data[...] = saved


def test_full_model_gradient_check_toy():
    # base point chosen away from ReLU kinks, where the loss is differentiable
    params, tokens, feats, targets = relu_safe_toy_point(12)
    f = frozen_total_loss(params, tokens, feats, targets, gamma=5.0)
    assert grad_check(f, params.all_parameters()) < 1e-4


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    params = init_params(toy_model_config(seed=13))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    for name in params.names():
        assert np.array_equal(loaded[name].data, params[name].data)


def test_checkpoint_identical_bytes_for_identical_params(tmp_path):
    params = init_params(toy_model_config(seed=14))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, p1)
    save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated_rejected(tmp_path):
    params = init_params(toy_model_config(seed=15))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataFormatError):
        load_checkpoint(path)
    save_checkpoint(init_params(toy_model_config(seed=15)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + (2).to_bytes(4, "little") + blob[12:])  # the version after the magic
    with pytest.raises(DataFormatError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    params = init_params(toy_model_config(seed=16))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)
