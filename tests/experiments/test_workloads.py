"""Tests for the experiment workload generators."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import disjointness_task
from repro.experiments import partition_instance, random_instance


class TestPartitionInstance:
    @given(st.integers(1, 64), st.integers(1, 8))
    def test_is_disjoint_and_covers_all_coordinates(self, n, k):
        masks = partition_instance(n, k)
        task = disjointness_task(n, k)
        assert task.evaluate(masks) == 1
        # Every coordinate is a zero of exactly one player.
        full = (1 << n) - 1
        zero_union = 0
        for mask in masks:
            zeros = (~mask) & full
            assert zero_union & zeros == 0   # zero classes are disjoint
            zero_union |= zeros
        assert zero_union == full

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            partition_instance(0, 3)


class TestRandomInstance:
    def test_density_extremes(self):
        rng = random.Random(0)
        empty = random_instance(10, 3, rng, density=0.0)
        assert all(mask == 0 for mask in empty)
        full = random_instance(10, 3, rng, density=1.0)
        assert all(mask == (1 << 10) - 1 for mask in full)

    def test_density_statistics(self):
        rng = random.Random(1)
        n, k = 1000, 2
        masks = random_instance(n, k, rng, density=0.3)
        ones = sum(bin(m).count("1") for m in masks)
        assert ones / (n * k) == pytest.approx(0.3, abs=0.04)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            random_instance(4, 2, random.Random(0), density=1.5)


def per_bit_random_instance(n, k, rng, density=0.5):
    """The per-bit loop :func:`random_instance` replaced, kept verbatim
    as the stream-identity reference."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    masks = []
    for _ in range(k):
        mask = 0
        for j in range(n):
            if rng.random() < density:
                mask |= 1 << j
        masks.append(mask)
    return tuple(masks)


def _untemper(y):
    """Invert the Mersenne Twister output tempering of one 32-bit word."""
    def unshift_right(y, shift):
        result = y
        for _ in range(32 // shift + 1):
            result = y ^ (result >> shift)
        return result

    def unshift_left(y, shift, mask):
        result = y
        for _ in range(32 // shift + 1):
            result = y ^ ((result << shift) & mask)
        return result & 0xFFFFFFFF

    y = unshift_right(y, 18)
    y = unshift_left(y, 15, 0xEFC60000)
    y = unshift_left(y, 7, 0x9D2C5680)
    return unshift_right(y, 11)


def rng_drawing(values):
    """A ``random.Random`` whose next ``random()`` calls return exactly
    ``v / 2**53`` for each 53-bit ``v`` in ``values``: the generator
    state is set so its next words are the untempered ``(a, b)`` pairs
    with ``(a >> 5) << 26 | b >> 6 == v``."""
    words = []
    for value in values:
        words += [(value >> 26) << 5, (value & (2**26 - 1)) << 6]
    rng = random.Random(0)
    version, internal, gauss = rng.getstate()
    mt = list(internal[:624])
    mt[: len(words)] = [_untemper(word) for word in words]
    rng.setstate((version, tuple(mt) + (0,), gauss))
    return rng


class TestRandomInstanceStreamIdentity:
    """Same masks *and* the same generator state afterwards as one
    ``rng.random()`` per bit, so every later draw of a seeded run is
    unchanged."""

    @staticmethod
    def assert_stream_identical(n, k, density, seed):
        reference_rng = random.Random(seed)
        rng = random.Random(seed)
        expected = per_bit_random_instance(n, k, reference_rng, density)
        assert random_instance(n, k, rng, density=density) == expected
        assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize(
        "density", [0.0, 1e-12, 0.1, 0.3, 0.5, 0.9, 1 - 1e-12, 1.0]
    )
    def test_grid(self, density):
        for n in (0, 1, 7, 8, 9, 31, 32, 33, 64, 257):
            for k in (0, 1, 3):
                self.assert_stream_identical(n, k, density, seed=1000 * n + k)

    @pytest.mark.parametrize(
        "density", [0.0, 1e-12, 0.1, 0.3, 0.5, 0.9, 1 - 1e-12, 1.0]
    )
    def test_threshold_boundaries(self, density):
        """Draws one below, at and one above ``ceil(density * 2**53)``:
        random 53-bit draws almost never land there, so the exact
        comparison is pinned on crafted generator states."""
        threshold = math.ceil(density * 2**53)
        values = [
            v
            for v in (threshold - 1, threshold, threshold + 1, 0, 2**53 - 1)
            if 0 <= v < 2**53
        ]
        reference_rng = rng_drawing(values)
        rng = rng_drawing(values)
        n = len(values)
        expected = per_bit_random_instance(n, 1, reference_rng, density)
        assert [v / 2**53 < density for v in values] == [
            bool(expected[0] >> j & 1) for j in range(n)
        ]
        assert random_instance(n, 1, rng, density=density) == expected
        assert rng.getstate() == reference_rng.getstate()

    def test_large_universe(self):
        self.assert_stream_identical(32768, 8, 0.5, seed=3)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 300),
        st.integers(0, 4),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
    )
    def test_random_parameters(self, n, k, density, seed):
        self.assert_stream_identical(n, k, density, seed)

    def test_empty_universe_draws_nothing(self):
        rng = random.Random(4)
        state = rng.getstate()
        assert random_instance(0, 3, rng) == (0, 0, 0)
        assert rng.getstate() == state
