"""Exact per-view information and per-link accounting on the media."""

import itertools
import math

import pytest

from repro.core.analysis import (
    expected_communication,
    external_information_cost,
)
from repro.core.runner import run_protocol
from repro.information.distribution import DiscreteDistribution
from repro.protocols import SequentialAndProtocol
from repro.topology import (
    BROADCAST,
    COORDINATOR,
    CoordinatorDisjointnessProtocol,
    CoordinatorTrivialDisjointness,
    Link,
    per_view_information,
)


def _uniform_masks(n, k):
    return DiscreteDistribution.uniform(
        list(itertools.product(range(1 << n), repeat=k))
    )


def expected_bits_per_link(protocol, medium, dist):
    """Expected bits per link of a deterministic protocol, from one
    concrete run per input."""
    totals = {}
    for inputs, p in dist.items():
        run = run_protocol(protocol, inputs, medium=medium)
        for link, bits in run.bits_by_link.items():
            totals[link] = totals.get(link, 0.0) + p * bits
    return totals


def _uniform_bits(k):
    return DiscreteDistribution.uniform(
        list(itertools.product((0, 1), repeat=k))
    )


class TestBroadcastViews:
    def test_every_view_equals_the_external_ic(self):
        """On the broadcast medium every node's view is the whole
        board, so per-view external info collapses to Definition 5."""
        protocol = SequentialAndProtocol(3)
        dist = _uniform_bits(3)
        legacy = external_information_cost(protocol, dist)
        views = per_view_information(protocol, BROADCAST, dist)
        assert set(views) == {0, 1, 2}
        for node in range(3):
            assert views[node]["external"] == legacy


class TestCoordinatorViews:
    def test_relay_decomposition_pinned(self):
        """n=2, k=2 relay under uniform masks: player 0's view is its
        own 2-bit set (reveals 2 bits, nothing about player 1 beyond
        its own input → internal 0); player 1's link carries the
        forward + the refined reply (3 bits external, 2 internal); the
        hub sees everything it ever reads — 3 bits."""
        protocol = CoordinatorDisjointnessProtocol(2, 2)
        views = per_view_information(protocol, COORDINATOR, _uniform_masks(2, 2))
        assert views[0]["external"] == pytest.approx(2.0)
        assert views[0]["internal"] == pytest.approx(0.0)
        assert views[1]["external"] == pytest.approx(3.0)
        assert views[1]["internal"] == pytest.approx(2.0)
        # The hub is an auxiliary node: external only.
        assert views[2]["external"] == pytest.approx(3.0)
        assert "internal" not in views[2]

    def test_hub_view_carries_the_full_transcript_information(self):
        """The coordinator reads every link, so its view's external
        info equals the full-transcript information cost."""
        protocol = CoordinatorDisjointnessProtocol(2, 2)
        dist = _uniform_masks(2, 2)
        views = per_view_information(protocol, COORDINATOR, dist)
        total = external_information_cost(
            protocol, dist, medium=COORDINATOR
        )
        assert views[2]["external"] == pytest.approx(total)

    def test_player_views_reveal_no_more_than_the_hub(self):
        protocol = CoordinatorDisjointnessProtocol(2, 3)
        dist = _uniform_masks(2, 3)
        views = per_view_information(protocol, COORDINATOR, dist)
        hub = views[3]["external"]
        for player in range(3):
            assert views[player]["external"] <= hub + 1e-9


class TestPerLinkAccounting:
    def test_trivial_charges_n_per_link(self):
        n, k = 2, 3
        protocol = CoordinatorTrivialDisjointness(n, k)
        dist = _uniform_masks(n, k)
        per_link = expected_bits_per_link(protocol, COORDINATOR, dist)
        assert per_link == {Link(i, k): float(n) for i in range(k)}

    def test_per_link_sums_to_expected_total(self):
        protocol = CoordinatorDisjointnessProtocol(2, 2)
        dist = _uniform_masks(2, 2)
        per_link = expected_bits_per_link(protocol, COORDINATOR, dist)
        total = expected_communication(protocol, dist, medium=COORDINATOR)
        assert sum(per_link.values()) == pytest.approx(total)
        assert total == pytest.approx(2 * (2 * 2 - 1))  # n(2k-1), fixed cost
