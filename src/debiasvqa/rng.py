"""Pinned random number generation.

Every stochastic choice in the package (weight init, benchmark priors,
visual noise, shuffling) flows through the helpers here, so that a seed
fully determines the result down to the bit.  The base stream is a
Mersenne Twister (MT19937) producing 53-bit doubles; Gaussian draws apply
the Box-Muller transform to that stream explicitly rather than relying on
whatever a library's normal() happens to do.
"""
from __future__ import annotations

import hashlib

import numpy as np


def mix_seed(*parts) -> int:
    """Derive a stable 64-bit seed from an arbitrary tuple of parts.

    Uses SHA-256 over a canonical string encoding, so the result is
    identical across processes and platforms (unlike Python's built-in
    ``hash``, which is salted per process).
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def uniform_stream(seed: int) -> np.random.Generator:
    """Mersenne Twister generator for uniform draws on [0, 1)."""
    return np.random.Generator(np.random.MT19937(seed))


def gaussian(gen: np.random.Generator, size) -> np.ndarray:
    """Standard-normal doubles via Box-Muller on a pinned stream.

    ``size`` may be an int or a shape tuple.  Consumes uniforms in pairs:
    u1 is mapped to (0, 1] to keep the log finite, and both transformed
    values of each pair are used in order.
    """
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    count = int(np.prod(shape)) if shape else 1
    n_pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(n_pairs)  # (0, 1]
    u2 = gen.random(n_pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * n_pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count].reshape(shape)
