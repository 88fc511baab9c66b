"""Two-branch answer classifier.

The main path fuses a question embedding with a visual embedding through
a projected elementwise product followed by a small MLP.  A question-only
head reads a detached copy of the question embedding, so its loss can
never push gradients into the shared encoders; that one-way wall is what
lets the head act as a pure bias probe.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import rng
from .autodiff import Parameter, Tensor, embedding_mean, flat_parameters, linear, multiply, relu
from .errors import ConfigError, DataFormatError, ShapeError, bounded, check_fields

_CHECKPOINT_MAGIC = b"DBVQCKPT"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and seed for one model instance.

    The joint fusion space uses ``hidden_dim``; the question-only head is
    a 3-layer MLP of width ``qo_hidden_dim``.  Defaults are deliberately
    tight: with capacity to spare the main path just learns the visual
    mapping outright and no loss reweighting is ever needed.
    """
    vocab_size: int = bounded(1)
    num_answers: int = bounded(2)
    embed_dim: int = bounded(1, 16)
    q_dim: int = bounded(1, 16)
    v_in_dim: int = bounded(1, 16)
    v_dim: int = bounded(1, 8)
    hidden_dim: int = bounded(1, 24)
    qo_hidden_dim: int = bounded(1, 64)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


class VqaModelParams:
    """All trainable parameters, grouped by role.

    ``encoder_parameters`` covers everything the main answer path trains
    (embeddings, both encoders, fusion); ``qo_parameters`` is the
    question-only head.  The parameter order is fixed and shared by the
    optimizer and the checkpoint format.  Every parameter is a view into
    the flat Parameter ``flat``, which the optimizer steps as one array.
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, np.ndarray]):
        self.config = config
        shapes = _parameter_shapes(config)
        if set(tensors) != set(shapes):
            raise ConfigError(f"parameter set mismatch: missing={sorted(set(shapes) - set(tensors))}, "
                              f"extra={sorted(set(tensors) - set(shapes))}")
        for name, shape in shapes.items():
            got = np.shape(tensors[name])
            if got != shape:
                raise ShapeError(f"parameter {name}: expected shape {shape}, got {got}")
        self.flat, self._params = flat_parameters({name: tensors[name] for name in shapes})

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def all_parameters(self) -> list[Parameter]:
        return [self._params[n] for n in self.names()]

    def encoder_parameters(self) -> list[Parameter]:
        return [self._params[n] for n in self.names() if not n.startswith("qo_")]

    def qo_parameters(self) -> list[Parameter]:
        return [self._params[n] for n in self.names() if n.startswith("qo_")]


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    c = config
    return {
        "token_embeddings": (c.vocab_size, c.embed_dim),
        "q_enc_w": (c.embed_dim, c.q_dim),
        "q_enc_b": (c.q_dim,),
        "v_enc_w": (c.v_in_dim, c.v_dim),
        "v_enc_b": (c.v_dim,),
        "fuse_proj_v": (c.v_dim, c.hidden_dim),
        "fuse_proj_v_b": (c.hidden_dim,),
        "fuse_proj_q": (c.q_dim, c.hidden_dim),
        "fuse_w1": (c.hidden_dim, c.hidden_dim),
        "fuse_b1": (c.hidden_dim,),
        "fuse_w2": (c.hidden_dim, c.num_answers),
        "fuse_b2": (c.num_answers,),
        "qo_w1": (c.q_dim, c.qo_hidden_dim),
        "qo_b1": (c.qo_hidden_dim,),
        "qo_w2": (c.qo_hidden_dim, c.qo_hidden_dim),
        "qo_b2": (c.qo_hidden_dim,),
        "qo_w3": (c.qo_hidden_dim, c.num_answers),
        "qo_b3": (c.num_answers,),
    }


def init_params(config: ModelConfig) -> VqaModelParams:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), biases zero.

    Token embeddings use their own width as fan-in.  One pinned stream is
    consumed in fixed parameter order, so the same seed always yields
    bitwise-identical parameters.
    """
    gen = rng.uniform_stream(rng.mix_seed(config.seed, "init"))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _parameter_shapes(config).items():
        if len(shape) == 1:  # every 1-D parameter is a bias
            tensors[name] = np.zeros(shape)
            continue
        fan_in = config.embed_dim if name == "token_embeddings" else shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = (2.0 * gen.random(int(np.prod(shape))) - 1.0).reshape(shape) * bound
    return VqaModelParams(config, tensors)


def encode_question(tokens, params: VqaModelParams) -> Tensor:
    """Embed tokens, mean-pool, and project: [B, T] ids -> [B, q_dim].

    Mean pooling makes the encoding order-invariant, which is all the
    template questions need.
    """
    pooled = embedding_mean(params["token_embeddings"], tokens)
    return linear(pooled, params["q_enc_w"], params["q_enc_b"])


def encode_visual(feature, params: VqaModelParams) -> Tensor:
    """Affine map plus ReLU: [B, v_in_dim] -> [B, v_dim]."""
    return relu(linear(Tensor(feature), params["v_enc_w"], params["v_enc_b"]))


def predict_vqa(v_emb: Tensor, q: Tensor, params: VqaModelParams) -> Tensor:
    """Answer logits from both modalities: [B, v_dim] and [B, q_dim] -> [B, A].

    The two embeddings are projected (bias-free) into a shared joint
    space and multiplied elementwise, so a zero question or zero image
    annihilates the joint vector; a 2-layer MLP maps the product to
    logits.
    """
    # the question projection is bias-free so a zero question annihilates
    # the joint vector; the visual projection keeps a bias, which gives
    # the product a question-passthrough channel
    joint = multiply(linear(v_emb, params["fuse_proj_v"], params["fuse_proj_v_b"]),
                     linear(q, params["fuse_proj_q"]))
    hidden = relu(linear(joint, params["fuse_w1"], params["fuse_b1"]))
    return linear(hidden, params["fuse_w2"], params["fuse_b2"])


def predict_qo(q: Tensor, params: VqaModelParams) -> Tensor:
    """Question-only answer logits from a detached question embedding: [B, q_dim] -> [B, A].

    The detach is a hard stop-gradient: any loss on these logits trains
    only the qo_* weights, and the gradient reaching the token embeddings
    and encoders through this path is exactly zero.
    """
    h = relu(linear(q.detach(), params["qo_w1"], params["qo_b1"]))
    h = relu(linear(h, params["qo_w2"], params["qo_b2"]))
    return linear(h, params["qo_w3"], params["qo_b3"])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _tensor_headers(config: ModelConfig) -> list[tuple[str, tuple[int, ...], bytes]]:
    """Name, shape and header bytes (name length, ASCII name, ndim, dims) of
    each checkpoint tensor, in parameter order."""
    return [(name, shape, struct.pack(f"<I{len(name)}sI{len(shape)}q", len(name),
                                      name.encode("ascii"), len(shape), *shape))
            for name, shape in _parameter_shapes(config).items()]


def save_checkpoint(params: VqaModelParams, path) -> None:
    """Write parameter values to a flat binary file.

    Layout: magic, version, config as JSON, tensor count, then per tensor
    its :func:`_tensor_headers` bytes and raw little-endian float64 data.
    The format is free of timestamps, so identical parameters produce
    byte-identical files.
    """
    config_blob = json.dumps(
        {f.name: getattr(params.config, f.name) for f in fields(ModelConfig)},
        sort_keys=True).encode("utf-8")
    headers = _tensor_headers(params.config)
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", _CHECKPOINT_VERSION, len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(headers)))
        for name, _, header in headers:
            fh.write(header)
            fh.write(params[name].data.astype("<f8").tobytes())


def load_checkpoint(path) -> VqaModelParams:
    """Read a checkpoint written by :func:`save_checkpoint`, bitwise."""
    view = memoryview(Path(path).read_bytes())
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise DataFormatError(f"checkpoint truncated at byte {pos} in {path}")
        pos += n
        return view[pos - n:pos]

    def expect(want: bytes, what: str) -> None:  # the config fixes it: compare, never parse
        at = pos
        if bytes(take(len(want))) != want:
            raise DataFormatError(f"{what} at byte {at} in {path} does not match its config")

    if bytes(take(len(_CHECKPOINT_MAGIC))) != _CHECKPOINT_MAGIC:
        raise DataFormatError(f"not a checkpoint file: {path}")
    (version,) = struct.unpack("<I", take(4))
    if version != _CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version} in {path}")
    (config_len,) = struct.unpack("<I", take(4))
    try:
        config = ModelConfig(**json.loads(bytes(take(config_len)).decode("utf-8")))
        headers = _tensor_headers(config)
    except (ValueError, TypeError, struct.error) as exc:  # JSONDecodeError and ConfigError are ValueErrors
        raise DataFormatError(f"bad checkpoint config in {path}: {exc}") from None
    expect(struct.pack("<I", len(headers)), "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for name, shape, header in headers:
        expect(header, f"header of tensor {name!r}")
        tensors[name] = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
    if pos != len(view):
        raise DataFormatError(f"trailing bytes in checkpoint {path}")
    params = VqaModelParams(config, tensors)
    if not np.isfinite(params.flat.data).all():
        raise DataFormatError(f"non-finite parameter value in checkpoint {path}")
    return params
