"""Tests for the combinadic subset codec (the Section 5 batch encoding)."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding import (
    BitReader,
    binomial,
    decode_subset,
    encode_subset,
    subset_code_width,
    subset_rank,
    subset_unrank,
)


class TestBinomial:
    def test_values(self):
        assert binomial(5, 2) == 10
        assert binomial(10, 0) == 1
        assert binomial(10, 10) == 1

    def test_invalid_returns_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, 0) == 0
        assert binomial(3, -1) == 0

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_math_comb(self, n, m):
        expected = math.comb(n, m) if 0 <= m <= n else 0
        assert binomial(n, m) == expected


class TestRanking:
    def test_rank_is_bijection_small(self):
        """Every m-subset of a small universe gets a distinct rank in
        [0, C(n, m)), and unrank inverts it."""
        for n in range(1, 8):
            for m in range(0, n + 1):
                ranks = set()
                for subset in itertools.combinations(range(n), m):
                    rank = subset_rank(list(subset), n)
                    assert 0 <= rank < binomial(n, m)
                    ranks.add(rank)
                    assert subset_unrank(rank, n, m) == list(subset)
                assert len(ranks) == binomial(n, m)

    def test_colex_order(self):
        """Ranks follow colexicographic order of the subsets."""
        n, m = 6, 3
        subsets = sorted(
            itertools.combinations(range(n), m),
            key=lambda s: tuple(reversed(s)),
        )
        for expected_rank, subset in enumerate(subsets):
            assert subset_rank(list(subset), n) == expected_rank

    def test_unsorted_subset_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            subset_rank([3, 1], 5)

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError, match="outside universe"):
            subset_rank([0, 7], 5)

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            subset_unrank(binomial(5, 2), 5, 2)

    @given(st.data())
    def test_roundtrip_random(self, data):
        n = data.draw(st.integers(1, 200))
        m = data.draw(st.integers(0, min(n, 12)))
        subset = sorted(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=m, max_size=m)
            )
        )
        rank = subset_rank(subset, n)
        assert subset_unrank(rank, n, m) == subset


def comb_per_term_rank(subset, n):
    """The ``math.comb``-per-element :func:`subset_rank` the running
    coefficient replaced, kept verbatim as the reference."""
    rank = 0
    previous = -1
    for position, element in enumerate(subset):
        if element <= previous:
            raise ValueError("subset must be strictly increasing")
        if not 0 <= element < n:
            raise ValueError(f"element {element} outside universe of size {n}")
        rank += binomial(element, position + 1)
        previous = element
    return rank


def comb_per_candidate_unrank(rank, n, m):
    """The ``math.comb``-per-candidate :func:`subset_unrank`, verbatim."""
    if not 0 <= rank < binomial(n, m):
        raise ValueError(
            f"rank {rank} out of range for C({n}, {m}) = {binomial(n, m)}"
        )
    subset = []
    remaining = rank
    size = m
    candidate = n - 1
    while size > 0:
        while binomial(candidate, size) > remaining:
            candidate -= 1
        subset.append(candidate)
        remaining -= binomial(candidate, size)
        size -= 1
        candidate -= 1
    subset.reverse()
    return subset


def running_coefficient_unrank(rank, n, m):
    """The running-coefficient :func:`subset_unrank` that scanned every
    candidate down from ``n - 1``, kept verbatim as the reference for
    the estimate that starts at the largest element."""
    total = binomial(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({n}, {m}) = {total}")
    subset = []
    if m == 0:
        return subset
    remaining = rank
    size = m
    candidate = n - 1
    coefficient = total * (n - m) // n  # C(n - 1, m)
    while True:
        while coefficient > remaining:
            coefficient = coefficient * (candidate - size) // candidate
            candidate -= 1
        subset.append(candidate)
        remaining -= coefficient
        if size == 1:
            break
        coefficient = coefficient * size // candidate
        size -= 1
        candidate -= 1
    subset.reverse()
    return subset


def _error_message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestRunningCoefficient:
    """The incremental-binomial rank/unrank against the per-term
    ``math.comb`` versions they replaced."""

    def test_every_rank_small(self):
        for n in range(0, 13):
            for m in range(0, n + 1):
                for rank in range(binomial(n, m)):
                    subset = subset_unrank(rank, n, m)
                    assert subset == comb_per_candidate_unrank(rank, n, m)
                    assert subset_rank(subset, n) == rank
                    assert comb_per_term_rank(subset, n) == rank

    def test_seeded_large_cases(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randrange(1, 700)
            m = rng.randrange(0, n + 1)
            rank = rng.randrange(binomial(n, m))
            subset = subset_unrank(rank, n, m)
            assert subset == comb_per_candidate_unrank(rank, n, m)
            assert subset_rank(subset, n) == rank

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 64, 513])
    def test_boundaries(self, n):
        for m in sorted({0, 1, n // 2, n - 1, n}):
            if not 0 <= m <= n:
                continue
            for rank in sorted({0, binomial(n, m) - 1}):
                subset = subset_unrank(rank, n, m)
                assert subset == comb_per_candidate_unrank(rank, n, m)
                assert subset_rank(subset, n) == rank
        assert subset_unrank(0, n, 0) == []
        assert subset_rank([], n) == 0
        assert subset_unrank(0, n, n) == list(range(n))

    @pytest.mark.parametrize(
        "n, m",
        # Dense subsets scan below the largest element; sparse ones
        # (n > 32 m) find every element by estimate.
        [(12, 3), (64, 5), (130, 4), (200, 1), (300, 9), (400, 8),
         (1024, 20), (40, 40)],
    )
    def test_every_largest_element_edge(self, n, m):
        """Ranks C(c, m) - 1, C(c, m) and C(c, m) + 1 for every c: the
        largest element steps from c - 1 to c there, so each one is an
        edge of the estimate's settling."""
        total = binomial(n, m)
        ranks = {0, total - 1}
        for c in range(m - 1, n + 1):
            edge = binomial(c, m)
            ranks.update({edge - 1, edge, edge + 1})
        for rank in sorted(r for r in ranks if 0 <= r < total):
            subset = subset_unrank(rank, n, m)
            assert subset == running_coefficient_unrank(rank, n, m)
            assert subset_rank(subset, n) == rank

    @pytest.mark.parametrize("n", [1, 2, 33, 700, 32_768])
    def test_extreme_sizes(self, n):
        for m in (1, n):
            for rank in sorted({0, binomial(n, m) - 1}):
                subset = subset_unrank(rank, n, m)
                assert subset_rank(subset, n) == rank
                if m == 1:
                    assert subset == running_coefficient_unrank(rank, n, m)
                else:
                    assert subset == list(range(n))

    def test_seeded_e1_sizes(self):
        """Seeded ranks and subsets at the sizes of E1's default grid:
        ``n`` up to 32,768, ``m`` up to 512, dense and sparse."""
        rng = random.Random(32)
        for n, m in ((32_768, 512), (32_768, 256), (32_768, 128),
                     (16_384, 128), (8_192, 512), (8_192, 64),
                     (2_048, 64), (2_048, 256), (1_024, 32)):
            for _ in range(2):
                rank = rng.randrange(binomial(n, m))
                subset = subset_unrank(rank, n, m)
                assert subset == running_coefficient_unrank(rank, n, m)
                assert subset_rank(subset, n) == rank
                drawn = sorted(rng.sample(range(n), m))
                rank = subset_rank(drawn, n)
                assert rank == comb_per_term_rank(drawn, n)
                assert subset_unrank(rank, n, m) == drawn

    @pytest.mark.parametrize(
        "subset, n",
        [([3, 1], 5), ([2, 2], 5), ([0, 7], 5), ([-1, 2], 5), ([4, 1], 3),
         ([0, 1, 9, 2], 4)],
    )
    def test_rank_errors_unchanged(self, subset, n):
        assert _error_message(subset_rank, subset, n) == _error_message(
            comb_per_term_rank, subset, n
        )

    @pytest.mark.parametrize(
        "rank, n, m",
        [(10, 5, 2), (-1, 5, 2), (0, 3, 5), (0, 3, -1), (1, 0, 0), (0, -1, 0)],
    )
    def test_unrank_errors_unchanged(self, rank, n, m):
        assert _error_message(subset_unrank, rank, n, m) == _error_message(
            comb_per_candidate_unrank, rank, n, m
        )
        assert _error_message(subset_unrank, rank, n, m) == _error_message(
            running_coefficient_unrank, rank, n, m
        )


class TestBitEncoding:
    def test_width_formula(self):
        assert subset_code_width(10, 3) == (binomial(10, 3) - 1).bit_length()
        assert subset_code_width(5, 0) == 0   # single subset, zero bits
        assert subset_code_width(5, 5) == 0

    def test_width_matches_amortized_logk_claim(self):
        """Encoding z/k coordinates out of z costs about (z/k) log2(ek)
        bits — the key accounting step of Theorem 2."""
        z, k = 10_000, 20
        m = z // k
        width = subset_code_width(z, m)
        amortized = width / m
        assert amortized <= math.log2(math.e * k) + 0.1

    @given(st.data())
    def test_encode_decode_roundtrip(self, data):
        n = data.draw(st.integers(1, 64))
        m = data.draw(st.integers(0, n))
        subset = sorted(
            data.draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m))
        )
        bits = encode_subset(subset, n)
        assert len(bits) == subset_code_width(n, m)
        reader = BitReader(bits)
        assert decode_subset(reader, n, m) == subset
        reader.expect_exhausted()

    @pytest.mark.parametrize("n, m", [(1024, 64), (4096, 256)])
    def test_encode_decode_roundtrip_large(self, n, m):
        subset = sorted(random.Random(n).sample(range(n), m))
        bits = encode_subset(subset, n)
        assert len(bits) == subset_code_width(n, m)
        reader = BitReader(bits)
        assert decode_subset(reader, n, m) == subset
        reader.expect_exhausted()
        assert subset_unrank(subset_rank(subset, n), n, m) == subset

    def test_invalid_universe(self):
        with pytest.raises(ValueError):
            subset_code_width(3, 5)
