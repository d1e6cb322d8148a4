"""Pluggable communication media: who may speak, who can read what.

The paper's blackboard (Section 3) is one *medium*: a single shared
channel every player reads for free.  Its natural sibling — the
message-passing / coordinator model of Braverman–Ellen–Oshman–Pitassi–
Vaikuntanathan (arXiv:1305.4696) — replaces the board with point-to-point
links between each player and a coordinator, so a message is visible only
to the two endpoints of the link it travels.  A
:class:`~repro.core.model.Medium` abstracts the difference:

* the set of **links** messages may travel on;
* **adjacency** — which node may write on which link;
* **visibility** — which node can read which link, inducing each node's
  *view* (the subsequence of traffic on its visible links);
* the **scheduler view** — the projection of the transcript that is
  allowed to determine whose turn it is.  On the blackboard that is the
  whole board; in the coordinator model it is the coordinator's view
  (which, the hub being an endpoint of every link, is again the whole
  transcript); on a general graph only the public trace *metadata*
  (who spoke on which link, and how long) is common knowledge, so the
  schedule must be determined by that alone.

Every write costs its length in bits, exactly :math:`CC(\\Pi)`; the
per-link split is read off the transcript
(:meth:`~repro.core.model.Transcript.bits_by_link`).

Three concrete media ship:

* :class:`~repro.core.model.BroadcastMedium` (singleton
  :data:`BROADCAST`) — the board, a single :data:`BOARD_LINK` everyone
  reads and writes.  It is defined in :mod:`repro.core.model` because
  it is the engine's default medium, and re-exported here.
* :class:`CoordinatorMedium` (singleton :data:`COORDINATOR`) — ``k``
  players plus a coordinator node ``k`` with one private link per
  player.  The coordinator holds no input (its ``player_input`` is
  ``None``) and its messages are charged like any other.
* :class:`GraphMedium` — an arbitrary topology given by an explicit
  link set; :func:`star_medium` (the coordinator topology, used for the
  star ≡ coordinator equivalence tests) and :func:`ring_medium` are the
  shipped constructors.

Nodes vs players: input-holding players are nodes ``0..k-1``; media may
add auxiliary nodes (the coordinator, relay nodes of a general graph)
with ids ``>= k`` and no input.  See docs/topology.md for the full
model, and :func:`repro.core.validate.validate_protocol` (``medium=…``)
for the mechanical audit of view-locality and scheduler-locality.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable, List, Tuple

from ..core.model import (
    BOARD_LINK,
    BROADCAST,
    BroadcastMedium,
    Link,
    Medium,
    TopologyViolation,
    Transcript,
)

__all__ = [
    "TopologyViolation",
    "Link",
    "BOARD_LINK",
    "Medium",
    "BroadcastMedium",
    "BROADCAST",
    "CoordinatorMedium",
    "COORDINATOR",
    "GraphMedium",
    "star_medium",
    "ring_medium",
]


class CoordinatorMedium(Medium):
    """The message-passing model: ``k`` players, a coordinator, and one
    private player↔coordinator link each.

    Node ``k`` is the coordinator; it holds no input (the runtime hands
    it ``player_input=None``) and is an endpoint of every link, so its
    view is the full transcript — which is why the model's rule
    "the coordinator's view determines who speaks next" is implemented
    as :meth:`scheduler_view` returning everything.  Players see only
    their own link: content-forwarding is the coordinator's job and is
    charged per link like any other message, which is what produces the
    :math:`\\Theta(nk)` disjointness shape of arXiv:1305.4696 that
    experiment E16 tabulates against the blackboard's
    :math:`\\Theta(n \\log k + k)`.
    """

    name = "coordinator"

    def coordinator(self, k: int) -> int:
        """The coordinator's node id (``k``)."""
        return k

    def num_nodes(self, k: int) -> int:
        return k + 1

    def links(self, k: int) -> Tuple[Any, ...]:
        return tuple(Link(i, k) for i in range(k))

    def may_write(self, k: int, node: int, link: Any) -> bool:
        return isinstance(link, Link) and link.b == k and node in link

    def visible(self, k: int, link: Any, node: int) -> bool:
        return isinstance(link, Link) and link.touches(node)

    def scheduler_view(self, k: int, transcript: Transcript) -> Tuple:
        # The coordinator is an endpoint of every link, so its view is
        # the whole transcript, contents included.
        return tuple((m.speaker, m.link, m.bits) for m in transcript)


#: The coordinator medium (stateless; one shared instance suffices).
COORDINATOR = CoordinatorMedium()


class GraphMedium(Medium):
    """An arbitrary topology given by an explicit undirected link set.

    Nodes are ``0..num_nodes-1``; players occupy ids ``0..k-1`` and any
    higher ids are auxiliary relay nodes without inputs.  Unlike the
    coordinator medium there is no all-seeing party, so the default
    metadata-only :meth:`Medium.scheduler_view` applies: the schedule
    must be determined by who spoke on which link and message lengths —
    the only common knowledge.  A protocol whose turn-taking reads
    message *contents* validates under :data:`COORDINATOR` but is
    rejected on the star graph, which is exactly the semantic gap
    between the two (see docs/topology.md).
    """

    def __init__(
        self,
        num_nodes: int,
        links: Iterable[Link],
        *,
        name: str = "graph",
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        normalized: List[Link] = []
        seen = set()
        for link in links:
            if not isinstance(link, Link):
                raise ValueError(f"graph links must be Link objects: {link!r}")
            if link.b >= num_nodes:
                raise ValueError(
                    f"{link!r} names node {link.b} but the graph has "
                    f"{num_nodes} nodes"
                )
            if link not in seen:
                seen.add(link)
                normalized.append(link)
        if not normalized:
            raise ValueError("a graph medium needs at least one link")
        # Immutable, so the cached ring and star media can be shared.
        self.__dict__.update(
            _num_nodes=num_nodes, _links=tuple(normalized),
            _link_set=frozenset(normalized), name=name,
        )

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def num_nodes(self, k: int) -> int:
        if k > self._num_nodes:
            raise ValueError(
                f"{k} players cannot inhabit a {self._num_nodes}-node graph"
            )
        return self._num_nodes

    def links(self, k: int) -> Tuple[Any, ...]:
        return self._links

    def may_write(self, k: int, node: int, link: Any) -> bool:
        # Type first: a tuple equal to a Link is not one, and an
        # unhashable value never reaches the set lookup.
        return (isinstance(link, Link) and link in self._link_set
                and node in link)

    def visible(self, k: int, link: Any, node: int) -> bool:
        return isinstance(link, Link) and link.touches(node)


@lru_cache(maxsize=None)
def star_medium(k: int) -> GraphMedium:
    """The star graph on ``k`` players plus hub node ``k`` — the
    coordinator *topology* as a :class:`GraphMedium` (same links,
    adjacency, visibility and charging as :data:`COORDINATOR`, but with
    the graph medium's metadata-only scheduler discipline).  Cached:
    one shared medium per ``k``."""
    if k < 1:
        raise ValueError(f"need at least one player, got {k}")
    return GraphMedium(
        k + 1, (Link(i, k) for i in range(k)), name=f"star({k})"
    )


@lru_cache(maxsize=None)
def ring_medium(k: int) -> GraphMedium:
    """The ``k``-cycle: node ``i`` linked to ``(i + 1) mod k`` (cached
    like :func:`star_medium`)."""
    if k < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {k}")
    return GraphMedium(
        k, (Link(i, (i + 1) % k) for i in range(k)), name=f"ring({k})"
    )
