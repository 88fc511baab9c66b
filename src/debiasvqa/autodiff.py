"""Minimal deterministic reverse-mode differentiation on float64 arrays.

The graph is a tape of ``Tensor`` nodes; each operation records a closure
that routes the upstream gradient to its inputs with the exact analytic
rule.  Everything runs in 64-bit numpy with a fixed summation order
(repeated embedding rows are summed by ``np.bincount``, in input order),
so identical inputs give bitwise-identical outputs, which the
training-equivalence and determinism tests rely on.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def detach(self) -> "Tensor":
        """Forward-identity node with no parents: a hard gradient barrier.

        The returned tensor shares the underlying buffer but carries no
        history, so no backward pass can reach anything upstream of it.
        """
        return Tensor(self.data)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable node."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.data.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable leaf: value plus gradient and Adam accumulators.

    ``grad`` is always an allocated array (zero after ``zero_grad``), so
    barrier tests can assert exact zeros rather than ``None``.  In a set
    from :func:`flat_parameters` the four arrays are views into flat
    buffers, and only the flat Parameter's ``step_count`` advances.
    """

    __slots__ = ("adam_m", "adam_v", "step_count", "name")

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.grad = np.zeros_like(self.data)
        self.adam_m = np.zeros_like(self.data)
        self.adam_v = np.zeros_like(self.data)
        self.step_count = 0
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name or '?'}, shape={self.data.shape})"


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; graphs are small but batch loops run many of them.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def flat_parameters(arrays: dict[str, np.ndarray]) -> tuple[Parameter, dict[str, Parameter]]:
    """One Parameter over all of ``arrays`` concatenated, and a named view per array.

    Each view's ``data``, ``grad``, ``adam_m`` and ``adam_v`` are slices of
    the flat Parameter's, so stepping or zeroing the flat one updates
    every view with a few whole-buffer operations.
    """
    flat = Parameter(np.concatenate([np.ravel(a) for a in arrays.values()]))
    views, start = {}, 0
    for name, array in arrays.items():
        end, shape = start + np.size(array), np.shape(array)
        views[name] = view = Parameter(flat.data[start:end].reshape(shape), name=name)
        view.grad, view.adam_m, view.adam_v = (
            buf[start:end].reshape(shape) for buf in (flat.grad, flat.adam_m, flat.adam_v))
        start = end
    return flat, views


def _accumulate(node: Tensor, grad: np.ndarray) -> None:
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = grad.copy()
    else:
        node.grad += grad


def _make_node(data: np.ndarray, parents: tuple[Tensor, ...],
               backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``x @ w + b`` for a batch of row vectors.

    ``x`` is [B, D_in], ``w`` is [D_in, D_out], ``b`` is [D_out] or None
    for a bias-free projection.  Backward accumulates the exact analytic
    gradients into ``w`` and ``b`` and propagates d/dx.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"linear expects 2-D input and weight, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: input width {x.data.shape[1]} does not match weight rows {w.data.shape[0]}")
    if b is not None and b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear: bias shape {b.data.shape} does not match output width {w.data.shape[1]}")

    y = x.data @ w.data
    if b is not None:
        y = y + b.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        if b is not None:
            _accumulate(b, g.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _make_node(y, parents, backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is taken to be 0."""
    mask = x.data > 0.0

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return _make_node(np.maximum(x.data, 0.0), (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _make_node(a.data + b.data, (a, b), backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"multiply: shapes {a.data.shape} and {b.data.shape} differ")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make_node(a.data * b.data, (a, b), backward)


def embedding_mean(table: Tensor, token_ids: np.ndarray) -> Tensor:
    """Mean of embedding rows per sample: [B, T] ids over [V, E] -> [B, E].

    Backward sums g / T into the looked-up rows with one ``np.bincount``
    over the flat ``row * E + col`` cell index, which adds repeated ids in
    input order, so the result is deterministic.
    """
    ids = np.asarray(token_ids)
    if ids.ndim != 2 or ids.size == 0:
        raise ShapeError(f"embedding_mean expects a nonempty [B, T] batch of ids, got shape {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"token ids must be integers, got dtype {ids.dtype}")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_mean expects a 2-D table, got {table.data.shape}")
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise ShapeError(
            f"embedding_mean: token id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    n_tokens = ids.shape[1]
    out = table.data[ids].mean(axis=1)

    def backward(g: np.ndarray) -> None:
        if not table.requires_grad:
            return
        cells = np.arange(table.data.size).reshape(table.data.shape)[ids].reshape(-1)
        per_token = np.repeat(g / n_tokens, n_tokens, axis=0).reshape(-1)
        summed = np.bincount(cells, weights=per_token, minlength=table.data.size)
        _accumulate(table, summed.reshape(table.data.shape))

    return _make_node(out, (table,), backward)


def softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax and log-softmax of a 2-D array from one ``exp``.

    Returns ``(probs, logp)``; both subtract the row max first for
    overflow safety.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    return e / total, shifted - np.log(total)


def _check_targets(targets: np.ndarray, n_classes: int) -> np.ndarray:
    t = np.asarray(targets)
    if t.ndim != 1:
        raise ShapeError(f"targets must be 1-D, got shape {t.shape}")
    if not np.issubdtype(t.dtype, np.integer):
        raise ShapeError(f"targets must be integers, got dtype {t.dtype}")
    if t.size and (t.min() < 0 or t.max() >= n_classes):
        raise ShapeError(f"target out of range [0, {n_classes}): min={t.min()}, max={t.max()}")
    return t


def cross_entropy_per_sample(logits: np.ndarray, targets) -> np.ndarray:
    """Unweighted per-sample cross entropy, -log softmax(logits)[i, t_i]."""
    t = _check_targets(targets, logits.shape[1])
    logp = softmax_parts(np.asarray(logits, dtype=np.float64))[1]
    return -logp[np.arange(len(t)), t]


def weighted_cross_entropy(logits: Tensor, targets, weights, parts=None) -> Tensor:
    """Mean of per-sample cross entropy scaled by constant weights.

    Returns -(1/B) * sum_i weights[i] * log softmax(logits[i])[targets[i]].
    The weights carry no gradient; backward produces the analytic
    softmax-CE gradient scaled by weights[i] / B on each row.  ``parts``
    is ``softmax_parts(logits.data)`` when the caller already has it.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"weighted_cross_entropy expects [B, C] logits, got {logits.data.shape}")
    batch, n_classes = logits.data.shape
    t = _check_targets(targets, n_classes)
    if t.shape[0] != batch:
        raise ShapeError(f"targets length {t.shape[0]} does not match batch {batch}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (batch,):
        raise ShapeError(f"weights shape {w.shape} does not match batch ({batch},)")
    if w.size and (w.min() < 0.0 or w.max() > 1.0):
        raise ValueError(f"weights must lie in [0, 1], got range [{w.min()}, {w.max()}]")

    probs, logp = softmax_parts(logits.data) if parts is None else parts
    rows = np.arange(batch)
    loss = -np.sum(w * logp[rows, t]) / batch

    def backward(g: np.ndarray) -> None:
        d = probs.copy()
        d[rows, t] -= 1.0
        d *= (w * (float(g) / batch))[:, None]
        _accumulate(logits, d)

    return _make_node(np.asarray(loss), (logits,), backward)


# ---------------------------------------------------------------------------
# Optimizer and gradient verification
# ---------------------------------------------------------------------------

def zero_grad(params: Iterable[Parameter]) -> None:
    """Reset gradients to exact zeros in place."""
    for p in params:
        p.grad[...] = 0.0


def adam_step(params: Iterable[Parameter], lr: float) -> None:
    """One bias-corrected Adam update (beta1 0.9, beta2 0.999, eps 1e-8), in place.

    Pass the flat Parameter of :func:`flat_parameters` to step a whole set
    at once.  Gradients are left untouched; the caller zeroes them after
    the step.
    """
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for p in params:
        p.step_count += 1
        p.adam_m *= beta1
        p.adam_m += (1.0 - beta1) * p.grad
        p.adam_v *= beta2
        p.adam_v += (1.0 - beta2) * p.grad * p.grad
        m_hat = p.adam_m / (1.0 - beta1 ** p.step_count)
        v_hat = p.adam_v / (1.0 - beta2 ** p.step_count)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must rebuild its graph on every call from the live parameter
    values and must not itself depend on stored gradients.  The error for
    each entry is |analytic - fd| / max(1, |fd|); the max over all entries
    of all parameters is returned.
    """
    zero_grad(params)
    f().backward()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f().data.item()
            flat[i] = saved - h
            f_minus = f().data.item()
            flat[i] = saved
            fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(gflat[i] - fd) / max(1.0, abs(fd))
            if err > worst:
                worst = err
    zero_grad(params)
    return worst
