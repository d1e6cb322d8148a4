"""Per-view information on arbitrary media.

The quantity only a general medium has: the **per-view information
decomposition** (:func:`per_view_information`).  On the blackboard
every player sees the whole transcript, so the paper's Lemma 2/3-style
per-player decompositions are stated over one shared object.  On a general medium each node ``v``
holds only its *view* :math:`V_v(\\Pi)` — the traffic on its visible
links — and the natural per-node quantities become

* external per view: :math:`I(V_v(\\Pi); X)` — what node ``v`` learns
  about the full input from its own view;
* internal per view (players only):
  :math:`I(V_v(\\Pi); X_{-v} \\mid X_v)` — what player ``v`` learns
  about the *others'* inputs beyond its own, the summand of the
  message-passing internal information cost used in the
  :math:`\\Theta(nk)` disjointness lower bound of arXiv:1305.4696 and
  the NIH per-player bound of arXiv:0902.1609.

On the broadcast medium every view equals the transcript, so each
external per-view term collapses to :math:`IC_\\mu(\\Pi)` — a collapse
the test suite asserts — while the coordinator medium genuinely splits
information across links, which experiment E16 tabulates.

It is built on the one engine: the joint law comes from
:func:`repro.core.analysis.transcript_joint` with the medium passed
through.
"""

from __future__ import annotations

from typing import Dict

from ..core.analysis import transcript_joint
from ..core.model import Medium, Protocol
from ..information.distribution import DiscreteDistribution
from ..information.entropy import (
    conditional_mutual_information,
    mutual_information,
)

__all__ = ["per_view_information"]


def per_view_information(
    protocol: Protocol,
    medium: Medium,
    input_dist: DiscreteDistribution,
) -> Dict[int, Dict[str, float]]:
    """The per-view information decomposition: for every node ``v``, what
    its own view reveals.

    Returns ``{node: {"external": ..., "internal": ...}}`` where

    * ``external`` is :math:`I(V_v(\\Pi); X)` for every node (players and
      auxiliary nodes alike — the coordinator's row shows what the hub
      ends up knowing);
    * ``internal`` is :math:`I(V_v(\\Pi); X_{-v} \\mid X_v)` and is
      present only for player nodes ``v < k`` (an input-less node has no
      own input to condition on).

    Views are computed with :meth:`~repro.topology.medium.Medium.
    node_view`; on the broadcast medium every view is the whole
    transcript, so every ``external`` equals the external information
    cost and the decomposition collapses — the cross-model contrast E16
    prints is precisely this table under :data:`~repro.topology.medium.
    COORDINATOR` vs :data:`~repro.topology.medium.BROADCAST`.
    """
    k = protocol.num_players
    joint = transcript_joint(protocol, input_dist, medium=medium)
    decomposition: Dict[int, Dict[str, float]] = {}
    for node in range(medium.num_nodes(k)):
        # (inputs, transcript) -> (inputs, transcript, view): appending a
        # deterministic function of the transcript keeps the law exact.
        with_view = joint.append_component(
            lambda outcome, _node=node: medium.node_view(
                k, outcome[1], _node
            ),
            name="view",
        )
        row = {"external": mutual_information(with_view, "view", "inputs")}
        if node < k:
            # Split inputs into (X_v, X_{-v}) to condition on the
            # node's own coordinate.
            split = with_view.append_component(
                lambda outcome, _node=node: outcome[0][_node], name="own"
            ).append_component(
                lambda outcome, _node=node: tuple(
                    x for i, x in enumerate(outcome[0]) if i != _node
                ),
                name="others",
            )
            row["internal"] = conditional_mutual_information(
                split, "view", "others", "own"
            )
        decomposition[node] = row
    return decomposition
