"""Autodiff core: forward values, analytic gradients, Adam, grad_check."""
import math

import numpy as np
import pytest

from conftest import cross_entropy_per_sample
from debiasvqa.autodiff import (
    Parameter,
    Tensor,
    adam_step,
    add,
    embedding_mean,
    flat_parameters,
    grad_check,
    linear,
    multiply,
    relu,
    softmax_parts,
    weighted_cross_entropy,
    zero_grad,
)
from debiasvqa.errors import ShapeError

# independently computed reference constants
LN_3000 = 8.006367567650246
ADAM_FIRST_DELTA = -0.00029999999400000005  # g=0.5, lr=3e-4, defaults


def central_diff(f, param, h=1e-5):
    """Test-local finite differences, independent of grad_check."""
    flat = param.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(f().data)
        flat[i] = orig - h
        down = float(f().data)
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return out.reshape(param.data.shape)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_identity_map():
    x = Tensor([[1.0, 2.0]])
    w = Parameter([[1.0, 0.0], [0.0, 1.0]])
    b = Parameter([0.0, 0.0])
    assert np.array_equal(linear(x, w, b).data, [[1.0, 2.0]])


def test_linear_bias_only():
    x = Tensor([[1.0, 2.0]])
    w = Parameter(np.zeros((2, 2)))
    b = Parameter([3.0, 4.0])
    assert np.array_equal(linear(x, w, b).data, [[3.0, 4.0]])


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    w = Parameter(rng.normal(size=(4, 2)))
    b = Parameter(rng.normal(size=2))

    def loss():
        return weighted_cross_entropy(linear(Tensor(x), w, b), [0, 1, 0], np.ones(3))

    loss().backward()
    for p in (w, b):
        fd = central_diff(loss, p)
        assert np.abs(p.grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6
    zero_grad([w, b])


def test_linear_shape_mismatch_rejected():
    x = Tensor(np.zeros((2, 3)))
    w = Parameter(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        linear(x, w)
    with pytest.raises(ShapeError, match="expects 2-D input"):
        linear(Tensor(np.zeros(3)), Parameter(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="bias shape"):
        linear(x, Parameter(np.zeros((3, 2))), Parameter(np.zeros(3)))


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def test_relu_values():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative_blocks_gradient():
    x = Parameter([[-1.0, -2.0, -3.0]])
    y = relu(x)
    assert np.array_equal(y.data, np.zeros((1, 3)))
    s = weighted_cross_entropy(y, [0], np.ones(1))
    s.backward()
    # softmax grad is nonzero, but relu passes none of it at negative inputs
    assert np.array_equal(x.grad, np.zeros((1, 3)))
    zero_grad([x])


def test_relu_subgradient_pattern():
    # upstream gradient [1, 1] arrives via a plain sum of the outputs
    x = Parameter([[3.0, -3.0]])
    _sum_entries(relu(x)).backward()
    assert np.array_equal(x.grad, [[1.0, 0.0]])
    zero_grad([x])


def _sum_entries(t: Tensor) -> Tensor:
    """Sum of a [B, n] tensor's entries as a [1, 1] node, ones @ t @ ones.

    The upstream gradient reaching ``t`` is exactly one in every entry.
    """
    rows, n = t.data.shape
    return linear(linear(Tensor(np.ones((1, rows))), t), Tensor(np.ones((n, 1))))


# ---------------------------------------------------------------------------
# softmax_parts
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    probs, logp = softmax_parts(np.zeros((1, 4)))
    assert np.allclose(probs, 0.25, atol=1e-15)
    assert np.allclose(logp, -math.log(4.0), atol=1e-15)


def test_softmax_analytic_two_class():
    probs, logp = softmax_parts(np.array([[0.0, math.log(2.0)]]))
    assert np.allclose(probs, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)
    assert np.allclose(logp, [[-math.log(3.0), math.log(2.0 / 3.0)]], atol=1e-15)


def test_softmax_large_logits_no_overflow():
    probs, logp = softmax_parts(np.array([[1000.0, 1000.0], [-1000.0, 1000.0]]))
    assert np.array_equal(probs, [[0.5, 0.5], [0.0, 1.0]])
    assert np.isfinite(logp).all() and logp[1, 1] == 0.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(5, 9)) * 30.0
    probs, logp = softmax_parts(z)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.exp(logp) - probs).max() < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(4, 6))
    shifted = z + rng.normal(size=(4, 1)) * 50.0
    for a, b in zip(softmax_parts(z), softmax_parts(shifted)):
        assert np.abs(a - b).max() < 1e-12


# ---------------------------------------------------------------------------
# weighted cross entropy
# ---------------------------------------------------------------------------

def test_weighted_ce_certain_prediction_zero_loss():
    logits = np.zeros((1, 4))
    logits[0, 2] = 60.0
    loss = weighted_cross_entropy(Tensor(logits), [2], np.ones(1))
    assert float(loss.data) < 1e-12


def test_weighted_ce_uniform_logits_vocab_3000():
    loss = weighted_cross_entropy(Tensor(np.zeros((2, 3000))), [17, 401], np.ones(2))
    assert abs(float(loss.data) - LN_3000) < 1e-12


def test_weighted_ce_zero_weights_zero_everything():
    w = Parameter(np.random.default_rng(3).normal(size=(3, 5)))
    loss = weighted_cross_entropy(linear(Tensor(np.eye(3)), w), [0, 1, 2], np.zeros(3))
    assert float(loss.data) == 0.0
    loss.backward()
    assert np.array_equal(w.grad, np.zeros((3, 5)))
    zero_grad([w])


def test_weighted_ce_unit_weights_equal_plain_ce():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(6, 8))
    targets = rng.integers(0, 8, size=6)
    weighted = float(weighted_cross_entropy(Tensor(logits), targets, np.ones(6)).data)
    plain = float(cross_entropy_per_sample(logits, targets).mean())
    assert weighted == plain


def test_weighted_ce_target_out_of_range():
    with pytest.raises(ShapeError):
        weighted_cross_entropy(Tensor(np.zeros((1, 3))), [3], np.ones(1))


def test_weighted_ce_weight_out_of_range():
    with pytest.raises(ValueError):
        weighted_cross_entropy(Tensor(np.zeros((1, 3))), [0], np.array([1.5]))
    with pytest.raises(ValueError):
        weighted_cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], np.array([0.5, np.nan]))


def test_weighted_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    w = Parameter(rng.normal(size=(4, 6)))
    x = rng.normal(size=(5, 4))
    targets = rng.integers(0, 6, size=5)
    weights = rng.random(5)

    def loss():
        return weighted_cross_entropy(linear(Tensor(x), w), targets, weights)

    loss().backward()
    fd = central_diff(loss, w)
    assert np.abs(w.grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6
    zero_grad([w])


# ---------------------------------------------------------------------------
# elementwise ops and embedding
# ---------------------------------------------------------------------------

def test_add_and_multiply_forward():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0, 5.0]])
    assert np.array_equal(add(a, b).data, [[4.0, 7.0]])
    assert np.array_equal(multiply(a, b).data, [[3.0, 10.0]])


def test_multiply_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    a = Parameter(rng.normal(size=(3, 4)))
    b = Parameter(rng.normal(size=(3, 4)))
    targets = [0, 2, 1]

    def loss():
        return weighted_cross_entropy(multiply(a, b), targets, np.ones(3))

    loss().backward()
    for p in (a, b):
        fd = central_diff(loss, p)
        assert np.abs(p.grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6
    zero_grad([a, b])


def test_embedding_mean_forward_and_gradient():
    table = Parameter(np.arange(12.0).reshape(4, 3))
    ids = np.array([[0, 2], [1, 1]])
    out = embedding_mean(table, ids)
    assert np.array_equal(out.data, [[3.0, 4.0, 5.0], [3.0, 4.0, 5.0]])

    rng = np.random.default_rng(8)
    table2 = Parameter(rng.normal(size=(5, 4)))
    ids2 = np.array([[0, 0, 3], [2, 4, 4]])

    def loss():
        return weighted_cross_entropy(embedding_mean(table2, ids2), [1, 3], np.ones(2))

    loss().backward()
    fd = central_diff(loss, table2)
    assert np.abs(table2.grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6
    zero_grad([table2])


def test_embedding_mean_backward_matches_add_at_bitwise():
    rng = np.random.default_rng(11)
    table = Parameter(rng.normal(size=(6, 5)))
    ids = rng.integers(0, 6, size=(40, 7))
    ids[:, 0] = 2  # every row hits id 2, many hit others more than once
    g = rng.normal(size=(40, 5))
    _sum_entries(multiply(embedding_mean(table, ids), Tensor(g))).backward()

    expected = np.zeros((6, 5))
    np.add.at(expected, ids.reshape(-1), np.repeat(g / 7, 7, axis=0))
    assert np.array_equal(table.grad, expected)


def test_embedding_mean_forward_matches_numpy_mean_bitwise():
    # numpy's mean over the token axis adds the rows in order, except for a
    # one-column table with 8 or more tokens, where the reduced axis is
    # contiguous and numpy's unrolled pairwise sum rounds differently
    rng = np.random.default_rng(12)
    for embed_dim in (1, 2, 3, 16):
        for n_tokens in range(1, 13):
            table = Parameter(rng.normal(size=(9, embed_dim)))
            ids = rng.integers(0, 9, size=(50, n_tokens))
            got = embedding_mean(table, ids).data
            if embed_dim >= 2 or n_tokens < 8:
                assert np.array_equal(got, table.data[ids].mean(axis=1)), (embed_dim, n_tokens)
            token_order = table.data[ids[:, 0]].copy()
            for j in range(1, n_tokens):
                token_order = token_order + table.data[ids[:, j]]
            assert np.array_equal(got, token_order / n_tokens), (embed_dim, n_tokens)


def test_add_of_one_input_twice_doubles_its_gradient():
    x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
    g = np.array([[0.25, -3.0, 7.0]])
    total = add(x, x)
    _sum_entries(multiply(total, Tensor(g))).backward()
    assert np.array_equal(x.grad, 2.0 * g)
    assert np.array_equal(total.grad, g)  # the consumer's own buffer is left alone
    assert not np.shares_memory(x.grad, total.grad)


def test_no_two_nodes_share_a_gradient_buffer():
    rng = np.random.default_rng(13)
    w, b = Parameter(rng.normal(size=(3, 4))), Parameter(rng.normal(size=(4,)))
    table = Parameter(rng.normal(size=(5, 3)))
    x = embedding_mean(table, rng.integers(0, 5, size=(6, 2)))
    h = relu(linear(x, w, b))
    logits = multiply(add(h, h), linear(x, w))
    loss = add(weighted_cross_entropy(logits, [0, 1, 2, 3, 0, 1], np.ones(6)),
               weighted_cross_entropy(h, [3, 2, 1, 0, 3, 2], np.full(6, 0.5)))
    loss.backward()
    nodes = [x, h, logits, loss, w, b, table, h._parents[0], logits._parents[0],
             logits._parents[1], loss._parents[0], loss._parents[1]]
    assert all(n.grad is not None for n in nodes)
    for i, a in enumerate(nodes):
        for other in nodes[i + 1:]:
            assert not np.shares_memory(a.grad, other.grad), (a, other)


def test_detach_blocks_gradient():
    p = Parameter([[1.0, -2.0, 0.5]])
    live = weighted_cross_entropy(linear(Tensor(np.eye(1)), p), [0], np.ones(1))
    live.backward()
    assert np.abs(p.grad).max() > 0.0
    zero_grad([p])
    detached = linear(Tensor(np.eye(1)), p).detach()
    weighted_cross_entropy(detached, [0], np.ones(1)).backward()
    assert np.array_equal(p.grad, np.zeros((1, 3)))
    zero_grad([p])


def test_backward_requires_scalar():
    t = linear(Tensor(np.ones((2, 2))), Parameter(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        t.backward()


@pytest.mark.parametrize("op, message", [
    (lambda: add(Tensor(np.zeros(2)), Tensor(np.zeros(3))), r"add: shapes \(2,\) and \(3,\) differ"),
    (lambda: embedding_mean(Parameter(np.zeros(4)), np.zeros((1, 2), dtype=np.int64)),
     r"embedding_mean expects a 2-D table, got \(4,\)"),
    (lambda: weighted_cross_entropy(Tensor(np.zeros(3)), [0], np.ones(1)),
     r"weighted_cross_entropy expects \[B, C\] logits, got \(3,\)"),
    (lambda: weighted_cross_entropy(Tensor(np.zeros((2, 3))), [0], np.ones(2)),
     "targets length 1 does not match batch 2"),
    (lambda: weighted_cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], np.ones(3)),
     r"weights shape \(3,\) does not match batch \(2,\)"),
], ids=["add-shapes", "embedding-1-d-table", "wce-1-d-logits", "wce-targets-length",
        "wce-weights-shape"])
def test_op_rejects_mismatched_shapes(op, message):
    with pytest.raises(ShapeError, match=message):
        op()


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_first_step_sign_identity():
    p = Parameter([1.0])
    p.grad[...] = 0.5
    adam_step([p], lr=3e-4)
    assert abs(float(p.data[0]) - (1.0 + ADAM_FIRST_DELTA)) < 1e-18
    assert p.step_count == 1
    assert float(p.grad[0]) == 0.5  # grads untouched


def test_adam_zero_gradient_no_move():
    p = Parameter([2.5])
    adam_step([p], lr=3e-4)
    assert float(p.data[0]) == 2.5


def test_adam_two_steps_match_reference_recurrence():
    p = Parameter([1.0])
    for _ in range(2):
        p.grad[...] = 0.5
        adam_step([p], lr=3e-4)
        zero_grad([p])

    # independent scalar recurrence
    value, m, v = 1.0, 0.0, 0.0
    for t in (1, 2):
        m = 0.9 * m + 0.1 * 0.5
        v = 0.999 * v + 0.001 * 0.25
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        value -= 3e-4 * mhat / (math.sqrt(vhat) + 1e-8)
    assert abs(float(p.data[0]) - value) < 1e-15


def test_adam_rejects_bad_lr():
    with pytest.raises(ValueError):
        adam_step([Parameter([1.0])], lr=0.0)
    with pytest.raises(ValueError):
        adam_step([Parameter([1.0])], lr=np.nan)


def test_flat_adam_matches_per_tensor_recurrence_bitwise():
    rng = np.random.default_rng(12)
    arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4),
              "t": rng.normal(size=(2, 3, 2))}
    flat, views = flat_parameters(arrays)
    expected = {n: (a.copy(), np.zeros_like(a), np.zeros_like(a)) for n, a in arrays.items()}
    for step in (1, 2, 3):
        for name, (value, m, v) in expected.items():
            g = rng.normal(size=value.shape)
            views[name].grad[...] = g
            # the textbook recurrence, one tensor at a time
            m[...] = 0.9 * m + (1.0 - 0.9) * g
            v[...] = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9 ** step)
            v_hat = v / (1.0 - 0.999 ** step)
            value -= 3e-4 * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step([flat], lr=3e-4)
        zero_grad([flat])
        for name, (value, m, v) in expected.items():
            assert np.array_equal(views[name].data, value), (name, step)
            assert np.array_equal(views[name].adam_m, m) and np.array_equal(views[name].adam_v, v)
            assert np.array_equal(views[name].grad, np.zeros_like(value))
    assert flat.step_count == 3


def test_zero_grad_exact():
    p = Parameter(np.ones((2, 2)))
    p.grad[...] = 3.0
    zero_grad([p])
    assert np.array_equal(p.grad, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------

def test_grad_check_composite_small():
    rng = np.random.default_rng(9)
    w1 = Parameter(rng.normal(size=(3, 5)))
    b1 = Parameter(rng.normal(size=5))
    w2 = Parameter(rng.normal(size=(5, 4)))
    x = rng.normal(size=(4, 3))
    targets = rng.integers(0, 4, size=4)

    def f():
        h = relu(linear(Tensor(x), w1, b1))
        return weighted_cross_entropy(linear(h, w2), targets, np.ones(4))

    assert grad_check(f, [w1, b1, w2]) < 1e-5


def test_grad_check_pure_linear_nearly_exact():
    rng = np.random.default_rng(10)
    w = Parameter(rng.normal(size=(2, 1)))
    x = rng.normal(size=(3, 2))

    def f():
        return _sum_entries(linear(Tensor(x), w))

    assert grad_check(f, [w]) < 1e-9


def test_determinism_bitwise():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 4))

    def once():
        p = Parameter(w.copy())
        loss = weighted_cross_entropy(relu(linear(Tensor(x), p)), [0, 1, 2, 3], np.ones(4))
        loss.backward()
        return float(loss.data), p.grad.copy()

    l1, g1 = once()
    l2, g2 = once()
    assert l1 == l2
    assert np.array_equal(g1, g2)
