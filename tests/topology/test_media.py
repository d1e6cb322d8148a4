"""Structural contracts of the medium layer: links, link-annotated
messages and transcripts, the three media, and the typed rejection of
topology violations."""

import pickle

import pytest

from repro.core.model import EMPTY_TRANSCRIPT, Message, Transcript
from repro.topology import (
    BOARD_LINK,
    BROADCAST,
    COORDINATOR,
    CoordinatorAndProtocol,
    GraphMedium,
    Link,
    TopologyViolation,
    ring_medium,
    run_on_medium,
    star_medium,
)
from repro.topology.medium import CoordinatorMedium


class TestLink:
    def test_endpoints_normalized(self):
        assert Link(3, 1) == Link(1, 3)
        assert Link(3, 1).endpoints == (1, 3)
        assert hash(Link(2, 5)) == hash(Link(5, 2))

    def test_touches_and_other(self):
        link = Link(0, 4)
        assert link.touches(0) and link.touches(4)
        assert not link.touches(2)
        assert link.other(0) == 4 and link.other(4) == 0

    def test_board_link_singleton_survives_pickle(self):
        assert pickle.loads(pickle.dumps(BOARD_LINK)) is BOARD_LINK

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(2, 2)


class TestLinkMessage:
    def test_validates_bits(self):
        with pytest.raises(ValueError):
            Message(0, "012", Link(0, 2))

    def test_link_type_checked(self):
        with pytest.raises(ValueError):
            Message(0, "1", (0, 2))

    def test_link_defaults_to_the_board(self):
        assert Message(0, "1").link is BOARD_LINK
        assert Message(0, "1") == Message(0, "1", BOARD_LINK)
        assert Message(0, "1") != Message(0, "1", Link(0, 2))


class TestLinkTranscript:
    def test_empty_singleton_properties(self):
        assert len(EMPTY_TRANSCRIPT) == 0
        assert EMPTY_TRANSCRIPT.bits_written == 0
        assert EMPTY_TRANSCRIPT.bit_string() == ""

    def test_extend_is_persistent_and_hashable(self):
        m1 = Message(0, "10", Link(0, 2))
        m2 = Message(2, "0", Link(1, 2))
        t1 = EMPTY_TRANSCRIPT.extend(m1)
        t2 = t1.extend(m2)
        assert len(t1) == 1 and len(t2) == 2
        assert t2.bits_written == 3
        assert t2.bits_by_link() == {Link(0, 2): 2, Link(1, 2): 1}
        assert t2 == Transcript((m1, m2))
        assert hash(t2) == hash(Transcript((m1, m2)))
        assert t2.speakers() == [0, 2]
        assert t2.on_link(Link(0, 2)) == [m1]
        assert t2.messages_by(2) == [m2]


class TestBroadcastMedium:
    def test_shape(self):
        k = 4
        assert BROADCAST.num_nodes(k) == k
        assert BROADCAST.links(k) == (BOARD_LINK,)
        for node in range(k):
            assert BROADCAST.may_write(k, node, BOARD_LINK)
            assert BROADCAST.visible(k, BOARD_LINK, node)

    def test_views_are_the_whole_board(self):
        transcript = EMPTY_TRANSCRIPT.extend(
            Message(0, "1", BOARD_LINK)
        ).extend(Message(1, "00", BOARD_LINK))
        for node in range(3):
            view = BROADCAST.node_view(3, transcript, node)
            assert view == ((0, BOARD_LINK, "1"), (1, BOARD_LINK, "00"))
        # The scheduler also sees full contents (board-determined turns).
        assert BROADCAST.scheduler_view(3, transcript) == view


class TestCoordinatorMedium:
    def test_shape(self):
        k = 3
        assert COORDINATOR.num_nodes(k) == k + 1
        assert set(COORDINATOR.links(k)) == {Link(i, k) for i in range(k)}
        # The hub touches every link, players only their own.
        for i in range(k):
            assert COORDINATOR.may_write(k, k, Link(i, k))
            assert COORDINATOR.may_write(k, i, Link(i, k))
            assert not COORDINATOR.may_write(k, i, Link((i + 1) % k, k))

    def test_views_are_private(self):
        k = 3
        transcript = EMPTY_TRANSCRIPT.extend(
            Message(0, "1", Link(0, k))
        ).extend(Message(1, "0", Link(1, k)))
        assert COORDINATOR.node_view(k, transcript, 0) == (
            (0, Link(0, k), "1"),
        )
        assert COORDINATOR.node_view(k, transcript, 2) == ()
        # The hub sees everything; so does the scheduler (contents).
        assert len(COORDINATOR.node_view(k, transcript, k)) == 2
        assert COORDINATOR.scheduler_view(k, transcript) == (
            (0, Link(0, k), "1"),
            (1, Link(1, k), "0"),
        )


class TestGraphMedia:
    def test_star_matches_coordinator_links(self):
        k = 4
        star = star_medium(k)
        assert star.num_nodes(k) == COORDINATOR.num_nodes(k)
        assert set(star.links(k)) == set(COORDINATOR.links(k))

    def test_graph_scheduler_sees_metadata_only(self):
        k = 3
        star = star_medium(k)
        transcript = EMPTY_TRANSCRIPT.extend(
            Message(0, "101", Link(0, k))
        )
        assert star.scheduler_view(k, transcript) == (
            (0, Link(0, k), 3),
        )

    def test_ring_adjacency(self):
        ring = ring_medium(4)
        assert set(ring.links(4)) == {
            Link(0, 1), Link(1, 2), Link(2, 3), Link(3, 0),
        }
        with pytest.raises(ValueError):
            ring_medium(2)

    def test_graph_medium_validates_links(self):
        with pytest.raises(ValueError):
            GraphMedium(3, (Link(0, 5),))  # endpoint out of range

    def test_constructors_share_one_immutable_medium_per_k(self):
        assert ring_medium(5) is ring_medium(5)
        assert star_medium(5) is star_medium(5)
        assert ring_medium(5) is not ring_medium(6)
        ring = ring_medium(5)
        with pytest.raises(AttributeError):
            ring.name = "other"
        with pytest.raises(AttributeError):
            del ring.name
        assert ring.name == "ring(5)"
        assert ring.links(5) == ring_medium(5).links(5)


class TestCheckEdge:
    def test_typed_rejections(self):
        k = 3
        with pytest.raises(TopologyViolation):
            COORDINATOR.check_edge(k, 99, Link(0, k))  # invalid node
        with pytest.raises(TopologyViolation):
            COORDINATOR.check_edge(k, 0, Link(1, 2))  # foreign link
        with pytest.raises(TopologyViolation):
            COORDINATOR.check_edge(k, 0, Link(1, k))  # not a writer
        # And the valid edge passes.
        COORDINATOR.check_edge(k, 0, Link(0, k))
        COORDINATOR.check_edge(k, k, Link(0, k))

    def test_rejection_messages(self):
        k = 3
        with pytest.raises(TopologyViolation, match="does not exist"):
            COORDINATOR.check_edge(k, 99, Link(0, k))
        with pytest.raises(TopologyViolation, match="is not a link"):
            COORDINATOR.check_edge(k, 0, Link(1, 2))
        with pytest.raises(TopologyViolation, match="not an endpoint"):
            COORDINATOR.check_edge(k, 0, Link(1, k))
        with pytest.raises(TopologyViolation, match="is not a link"):
            BROADCAST.check_edge(k, 0, Link(0, 1))

    def test_success_never_builds_the_link_set(self):
        """A successful run checks every edge with ``may_write`` alone."""

        class CountingCoordinator(CoordinatorMedium):
            calls = 0

            def links(self, k):
                CountingCoordinator.calls += 1
                return super().links(k)

        medium = CountingCoordinator()
        run = run_on_medium(CoordinatorAndProtocol(64), medium, (1,) * 64)
        assert run.rounds == 64 and run.output == 1
        assert CountingCoordinator.calls == 0


SHIPPED_MEDIA = {
    "broadcast": BROADCAST,
    "coordinator": COORDINATOR,
    "ring(4)": ring_medium(4),
}


class TestUntypedLinks:
    """A link that is not a Link is rejected with TopologyViolation on
    every shipped medium, even when it equals one of the medium's links
    as a tuple or cannot be hashed at all."""

    @pytest.mark.parametrize("name", sorted(SHIPPED_MEDIA))
    @pytest.mark.parametrize("link", [[0, 1], {0: 1}, (0, 1), (0, 4)],
                             ids=repr)
    def test_rejected_as_not_a_link(self, name, link):
        medium = SHIPPED_MEDIA[name]
        assert not medium.may_write(4, 0, link)
        with pytest.raises(TopologyViolation) as info:
            medium.check_edge(4, 0, link)
        assert str(info.value) == (
            f"{name}: {link!r} is not a link of this medium"
        )

    @pytest.mark.parametrize("name", ["coordinator", "ring(4)"])
    def test_the_typed_link_still_passes(self, name):
        medium = SHIPPED_MEDIA[name]
        link = Link(0, 4) if medium is COORDINATOR else Link(0, 1)
        assert medium.may_write(4, 0, link)
        medium.check_edge(4, 0, link)
