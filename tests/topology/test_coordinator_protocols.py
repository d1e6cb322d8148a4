"""The ported coordinator/ring protocols: correctness, exact costs,
star ≡ coordinator equivalence, the coordinator-vs-graph semantic gap,
and typed rejection of topology violations."""

import itertools

import pytest

from repro.core.model import ProtocolViolation
from repro.core.tasks import disjointness_task
from repro.core.validate import validate_protocol
from repro.protocols import SequentialAndProtocol
from repro.topology import (
    COORDINATOR,
    CoordinatorAndProtocol,
    CoordinatorDisjointnessProtocol,
    CoordinatorTrivialDisjointness,
    Link,
    RingTokenAndProtocol,
    TopologyViolation,
    ring_medium,
    run_on_medium,
    star_medium,
)


def _all_masks(n, k):
    return list(itertools.product(range(1 << n), repeat=k))


def _all_bits(k):
    return list(itertools.product((0, 1), repeat=k))


class TestCoordinatorDisjointness:
    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
    def test_trivial_correct_with_exact_cost(self, n, k):
        protocol = CoordinatorTrivialDisjointness(n, k)
        task = disjointness_task(n, k)
        for inputs in _all_masks(n, k):
            run = run_on_medium(protocol, COORDINATOR, inputs)
            assert run.output == task.evaluate(inputs)
            assert run.bits_communicated == n * k
            assert run.bits_by_link == {
                Link(i, k): n for i in range(k)
            }

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
    def test_relay_correct_with_exact_cost(self, n, k):
        protocol = CoordinatorDisjointnessProtocol(n, k)
        task = disjointness_task(n, k)
        for inputs in _all_masks(n, k):
            run = run_on_medium(protocol, COORDINATOR, inputs)
            assert run.output == task.evaluate(inputs)
            assert run.bits_communicated == n * (2 * k - 1)
            # Player 0's link carries one message; every later player's
            # link carries the hub forward plus the reply.
            assert run.bits_by_link[Link(0, k)] == n
            for i in range(1, k):
                assert run.bits_by_link[Link(i, k)] == 2 * n

    @pytest.mark.parametrize(
        "factory",
        [CoordinatorTrivialDisjointness, CoordinatorDisjointnessProtocol],
        ids=["trivial", "relay"],
    )
    def test_passes_the_topology_audit(self, factory):
        protocol = factory(2, 2)
        report = validate_protocol(
            protocol, _all_masks(2, 2), medium=COORDINATOR
        )
        assert (
            report.ok,
            report.scheduler_local,
            report.view_local,
            report.edges_valid,
        ) == (True, True, True, True), report.problems


class TestStarEquivalence:
    """Count-scheduled coordinator protocols run identically on the
    star graph medium — same links, metadata-only scheduler."""

    @pytest.mark.parametrize(
        "factory",
        [CoordinatorTrivialDisjointness, CoordinatorDisjointnessProtocol],
        ids=["trivial", "relay"],
    )
    def test_star_runs_equal_coordinator_runs(self, factory):
        n, k = 2, 3
        protocol = factory(n, k)
        star = star_medium(k)
        for inputs in _all_masks(n, k):
            on_coord = run_on_medium(protocol, COORDINATOR, inputs)
            on_star = run_on_medium(protocol, star, inputs)
            assert on_star.transcript == on_coord.transcript
            assert on_star.output == on_coord.output
            assert on_star.bits_by_link == on_coord.bits_by_link

    def test_relay_passes_star_audit(self):
        protocol = CoordinatorDisjointnessProtocol(2, 2)
        report = validate_protocol(
            protocol, _all_masks(2, 2), medium=star_medium(2)
        )
        assert (
            report.ok,
            report.scheduler_local,
            report.view_local,
            report.edges_valid,
        ) == (True, True, True, True), report.problems


class TestSemanticGap:
    """The documented coordinator-vs-star gap: a content-dependent
    schedule is legal when the scheduler sees contents (coordinator)
    and rejected when it sees only metadata (graph)."""

    def test_and_protocol_valid_under_coordinator(self):
        protocol = CoordinatorAndProtocol(3)
        report = validate_protocol(
            protocol, _all_bits(3), medium=COORDINATOR
        )
        assert (
            report.ok,
            report.scheduler_local,
            report.view_local,
            report.edges_valid,
        ) == (True, True, True, True), report.problems

    def test_and_protocol_rejected_on_star_graph(self):
        protocol = CoordinatorAndProtocol(3)
        report = validate_protocol(
            protocol, _all_bits(3), medium=star_medium(3)
        )
        assert not report.ok
        assert not report.scheduler_local
        assert (
            report.ok,
            report.scheduler_local,
            report.view_local,
            report.edges_valid,
        ) == (False, False, True, True), report.problems

    def test_and_protocol_halts_early(self):
        protocol = CoordinatorAndProtocol(4)
        run = run_on_medium(protocol, COORDINATOR, (1, 0, 1, 1))
        assert run.output == 0
        assert run.bits_communicated == 2  # halts at the first zero
        full = run_on_medium(protocol, COORDINATOR, (1, 1, 1, 1))
        assert full.output == 1
        assert full.bits_communicated == 4


class TestRingSmoke:
    def test_token_and_on_the_ring(self):
        k = 4
        protocol = RingTokenAndProtocol(k)
        ring = ring_medium(k)
        for inputs in _all_bits(k):
            run = run_on_medium(protocol, ring, inputs)
            assert run.output == int(all(inputs))
            assert run.bits_communicated == k
            assert set(run.bits_by_link) == set(ring.links(k))

    def test_ring_protocol_passes_the_audit(self):
        protocol = RingTokenAndProtocol(3)
        report = validate_protocol(
            protocol, _all_bits(3), medium=ring_medium(3)
        )
        assert (
            report.ok,
            report.scheduler_local,
            report.view_local,
            report.edges_valid,
        ) == (True, True, True, True), report.problems


class _WrongLinkProtocol(CoordinatorTrivialDisjointness):
    """Speaks on another player's private link — a topology violation."""

    def next_edge(self, state, transcript):
        edge = super().next_edge(state, transcript)
        if edge is None:
            return None
        speaker, _ = edge
        other = (speaker + 1) % self.num_players
        return (speaker, Link(other, self.num_players))


class TestTypedRejection:
    def test_wrong_link_raises_topology_violation(self):
        protocol = _WrongLinkProtocol(2, 2)
        with pytest.raises(TopologyViolation):
            run_on_medium(protocol, COORDINATOR, (1, 2))

    def test_wrong_link_is_reported_by_the_audit(self):
        """The audit reports a rejected edge instead of raising, and does
        not expand the board behind it."""
        report = validate_protocol(
            _WrongLinkProtocol(2, 2), _all_masks(2, 2), medium=COORDINATOR
        )
        assert (
            report.ok,
            report.scheduler_local,
            report.view_local,
            report.edges_valid,
        ) == (False, True, True, False)
        assert report.states_checked == 1
        assert "not an endpoint" in report.problems[0]

    def test_invalid_node_raises_protocol_violation(self):
        class _BadNode(CoordinatorTrivialDisjointness):
            def next_edge(self, state, transcript):
                return (99, Link(0, self.num_players))

        with pytest.raises(ProtocolViolation):
            run_on_medium(_BadNode(2, 2), COORDINATOR, (1, 2))

    def test_legacy_protocol_cannot_run_on_coordinator(self):
        """A board protocol writes on BOARD_LINK, which the coordinator
        medium does not have."""
        with pytest.raises(TopologyViolation, match="is not a link"):
            run_on_medium(SequentialAndProtocol(3), COORDINATOR, (1, 1, 1))

    def test_coordinator_protocol_rejected_off_its_medium(self):
        protocol = RingTokenAndProtocol(3)
        with pytest.raises(TopologyViolation):
            run_on_medium(protocol, COORDINATOR, (1, 1, 1))
