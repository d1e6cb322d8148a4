"""Protocols stated over an explicit medium.

A :class:`MediumProtocol` is an ordinary :class:`repro.core.model.
Protocol` whose scheduling hook is :meth:`~repro.core.model.Protocol.
next_edge`: instead of a next speaker writing on the implicit board, the
protocol names a **(speaker, link)** edge, and the message law is that
speaker's on that link.  Nodes ``0..num_players-1`` hold inputs;
auxiliary nodes (a coordinator, graph relays) receive
``player_input=None``.  The runner and the exact analyzer of
:mod:`repro.core` run it on any :class:`~repro.core.model.Medium`.

Discipline (audited by :func:`repro.core.validate.validate_protocol`
with ``medium=``):

* **scheduler locality** — :meth:`MediumProtocol.next_edge` may depend
  only on the medium's scheduler view of the transcript;
* **view locality** — a speaker's message law may depend only on its own
  input and its own view (the traffic on its visible links);
* prefix-freeness of each node's message set at each view, so message
  boundaries are recoverable by every reader.

All hooks must be pure functions: the exact analyzer replays transcripts
in arbitrary interleavings.
"""

from __future__ import annotations

import abc
from typing import Any, Optional, Tuple

from ..core.model import Protocol, Transcript

__all__ = ["MediumProtocol"]


class MediumProtocol(Protocol):
    """A multi-party protocol stated over an explicit medium.

    Attributes
    ----------
    num_players:
        The number of input-holding players ``k`` (nodes ``0..k-1``).
        Auxiliary medium nodes at ids ``>= k`` carry no input.
    """

    @abc.abstractmethod
    def next_edge(
        self, state: Any, transcript: Transcript
    ) -> Optional[Tuple[int, Any]]:
        """The next ``(speaker, link)`` to carry a message, or ``None``
        to halt.

        May depend only on the medium's scheduler view of the transcript
        — the coordinator's view in the coordinator model, public trace
        metadata on a general graph.
        """

    def next_speaker(
        self, state: Any, transcript: Transcript
    ) -> Optional[int]:
        """The speaker half of :meth:`next_edge`."""
        edge = self.next_edge(state, transcript)
        return None if edge is None else edge[0]
