"""Reference tests for the bitmask helpers behind the disjointness codecs.

Each helper is checked ``==`` against the loop it replaced, kept here
verbatim as the reference: the per-coordinate shift loop of
``bits_of``, and the optimal/union protocols' zone scans (positions of
a mask's set bits within ``Z_i``) and zone lookups (positions back to
a coordinate mask).
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.bitops import bits_of, zone_mask, zone_positions


def reference_bits_of(mask):
    out = []
    position = 0
    while mask:
        if mask & 1:
            out.append(position)
        mask >>= 1
        position += 1
    return out


def reference_first_m_in_zone(new_zeros, zone, m):
    positions = []
    for index, coordinate in enumerate(zone):
        if new_zeros >> coordinate & 1:
            positions.append(index)
            if len(positions) == m:
                return positions
    return None


def reference_zone_positions(mask, zone):
    return [
        index for index, coordinate in enumerate(zone)
        if mask >> coordinate & 1
    ]


def reference_zone_mask(positions, zone):
    written = 0
    for position in positions:
        written |= 1 << zone[position]
    return written


def _masks(n, rng):
    """Masks over ``n`` coordinates: empty, every single bit at the ends,
    top bit only, full, and sparse/half/dense random draws."""
    full = (1 << n) - 1
    out = [0, 1, 1 << (n - 1), full, full ^ 1, full ^ (1 << (n - 1))]
    for ones in (0.01, 0.5, 0.99):
        out.append(sum(1 << c for c in range(n) if rng.random() < ones))
    return out


SIZES = (1, 2, 5, 63, 64, 65, 511, 512, 2048, 32768)


@pytest.mark.parametrize("n", SIZES)
def test_bits_of_matches_reference(n):
    for mask in _masks(n, random.Random(n)):
        assert bits_of(mask) == reference_bits_of(mask)


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
def test_bits_of_rejects_negative(mask):
    with pytest.raises(ValueError):
        bits_of(mask)


@given(st.integers(0, 2**300))
def test_bits_of_property(mask):
    assert bits_of(mask) == reference_bits_of(mask)


@pytest.mark.parametrize("n", SIZES)
def test_zone_helpers_match_reference(n):
    rng = random.Random(f"zone-{n}")
    for zone in _masks(n, rng):
        coordinates = reference_bits_of(zone)
        for mask in _masks(n, rng):
            mask &= zone  # the codecs only ask about subsets of Z_i
            positions = zone_positions(mask, zone)
            assert positions == reference_zone_positions(mask, coordinates)
            assert zone_mask(positions, zone) == mask
            # Batch sizes are >= 1 (a zone of size z >= 1 gives m >= 1).
            for m in {1, 2, len(positions), len(positions) + 1} - {0}:
                expected = reference_first_m_in_zone(mask, coordinates, m)
                chosen = positions[:m] if len(positions) >= m else None
                assert chosen == expected
        picked = sorted(
            rng.sample(range(len(coordinates)), min(5, len(coordinates)))
        )
        assert zone_mask(picked, zone) == reference_zone_mask(
            picked, coordinates
        )


def test_zone_positions_rejects_coordinates_outside_the_zone():
    with pytest.raises(KeyError):
        zone_positions(0b100, 0b011)


def test_zone_memo_is_keyed_on_the_whole_mask():
    """Zones that agree on their low bits or their size still get their
    own coordinates (no stale index)."""
    for zone in (0b1011, 0b0111, 0b1110, 0b1011 | 1 << 200):
        coordinates = reference_bits_of(zone)
        assert zone_mask(range(len(coordinates)), zone) == zone
        assert zone_positions(zone, zone) == list(range(len(coordinates)))
