"""Regression tests pinning the fast bootstrap against the generic path.

`bootstrap_mutual_information_interval` recodes samples to integer ids
once and counts ints per replicate; the contract is that for the same
rng state it returns *exactly* the interval the generic
`bootstrap_interval` + `plugin_mutual_information` composition returns,
consuming the rng identically.
"""

import random

import pytest

from repro.information.estimation import (
    bootstrap_interval,
    bootstrap_mutual_information_interval,
    plugin_mutual_information,
)


def make_pairs(n, seed=0):
    """(inputs tuple, transcript string) pairs."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        x = tuple(rng.randrange(2) for _ in range(6))
        t = "".join(str(b) for b in x[: rng.randrange(1, 6)])
        pairs.append((x, t))
    return pairs


class TestBitIdentity:
    @pytest.mark.parametrize("miller_madow", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2024])
    def test_identical_interval_and_rng_consumption(self, miller_madow, seed):
        pairs = make_pairs(250, seed=seed)
        generic_rng = random.Random(seed)
        fast_rng = random.Random(seed)
        generic = bootstrap_interval(
            pairs,
            lambda resample: plugin_mutual_information(
                resample, miller_madow=miller_madow
            ),
            rng=generic_rng,
            replicates=40,
        )
        fast = bootstrap_mutual_information_interval(
            pairs, rng=fast_rng, replicates=40, miller_madow=miller_madow
        )
        assert fast == generic
        # Exactly the same randrange calls were made, so downstream
        # consumers of the shared rng see an unchanged stream.
        assert fast_rng.getstate() == generic_rng.getstate()

    def test_confidence_levels(self):
        pairs = make_pairs(120)
        for confidence in (0.5, 0.9, 0.99):
            generic = bootstrap_interval(
                pairs,
                lambda r: plugin_mutual_information(r, miller_madow=True),
                rng=random.Random(9),
                replicates=30,
                confidence=confidence,
            )
            fast = bootstrap_mutual_information_interval(
                pairs,
                rng=random.Random(9),
                replicates=30,
                confidence=confidence,
            )
            assert fast == generic

    def test_validation_matches_generic(self):
        with pytest.raises(ValueError):
            bootstrap_mutual_information_interval([], rng=random.Random(0))
        with pytest.raises(ValueError):
            bootstrap_mutual_information_interval(
                make_pairs(10), rng=random.Random(0), confidence=1.0
            )

    def test_degenerate_single_outcome(self):
        pairs = [((1,), "1")] * 20
        lo, hi = bootstrap_mutual_information_interval(
            pairs, rng=random.Random(0), replicates=10
        )
        assert lo == hi == 0.0
