"""Pinned random streams: seed mixing and Box-Muller Gaussians."""
import numpy as np
import pytest

from debiasvqa.rng import gaussian, mix_seed, uniform_stream


def test_mix_seed_is_pinned_and_order_sensitive():
    # the first 8 bytes, little-endian, of SHA-256("0\x1fepoch\x1f1")
    assert mix_seed(0, "epoch", 1) == 15101919402097678169
    assert mix_seed("a", "b") != mix_seed("b", "a")


@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3), (2, 0)])
def test_gaussian_has_the_requested_shape(shape):
    assert gaussian(uniform_stream(3), shape).shape == shape


@pytest.mark.parametrize("count", [1, 5, 6])
def test_gaussian_consumes_one_uniform_pair_per_two_values(count):
    """An odd count still draws a whole last pair, so the stream moves on by
    2 * ceil(count / 2) uniforms."""
    gen = uniform_stream(9)
    gaussian(gen, (count,))
    reference = uniform_stream(9)
    reference.random(2 * -(-count // 2))
    assert gen.random() == reference.random()


def test_gaussian_is_box_muller_over_the_stream():
    u = uniform_stream(4).random(4)  # u1 of both pairs, then u2 of both
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:2]))
    want = np.column_stack([radius * np.cos(2.0 * np.pi * u[2:]),
                            radius * np.sin(2.0 * np.pi * u[2:])]).ravel()
    assert np.array_equal(gaussian(uniform_stream(4), (4,)), want)


def test_a_zero_uniform_gives_a_finite_value():
    class Zeros:
        def random(self, n):
            return np.zeros(n)

    out = gaussian(Zeros(), (3,))
    assert np.isfinite(out).all()
    assert np.array_equal(out, np.zeros(3))


def test_gaussian_repeats_bit_for_bit_from_one_seed():
    a = gaussian(uniform_stream(mix_seed(7, "prototypes")), (4, 5))
    b = gaussian(uniform_stream(mix_seed(7, "prototypes")), (4, 5))
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, gaussian(uniform_stream(mix_seed(8, "prototypes")), (4, 5)))
