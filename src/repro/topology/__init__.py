"""Pluggable communication media: broadcast, coordinator, graph.

The blackboard of Section 3 is one *medium*; this package makes the
medium a parameter of the one engine in :mod:`repro.core`.  The
:class:`~repro.core.model.Medium` contract and the broadcast medium
live in :mod:`repro.core.model` (the runner and analyzer default to
it); :mod:`~repro.topology.medium` adds
:data:`~repro.topology.medium.COORDINATOR` and
:class:`~repro.topology.medium.GraphMedium` (star, ring, …).
:mod:`~repro.topology.protocol` defines :class:`MediumProtocol`, a
:class:`~repro.core.model.Protocol` that schedules ``(speaker, link)``
edges; :func:`~repro.topology.runtime.run_on_medium` runs one on a
medium through :func:`repro.core.runner.run_protocol`;
:mod:`~repro.topology.analysis` adds the per-link and per-view
accounting on top of the core functionals;
:func:`repro.core.validate.validate_protocol` (``medium=…``) audits
view- and scheduler-locality;
:mod:`~repro.topology.protocols` ports disjointness and ``AND_k`` to
the coordinator and ring media.

See docs/topology.md for the model and experiment E16 for the
cross-model disjointness comparison this package exists to run.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "analysis": ("per_view_information",),
    "medium": (
        "BOARD_LINK",
        "BROADCAST",
        "COORDINATOR",
        "BroadcastMedium",
        "CoordinatorMedium",
        "GraphMedium",
        "Link",
        "Medium",
        "TopologyViolation",
        "ring_medium",
        "star_medium",
    ),
    "protocol": ("MediumProtocol",),
    "protocols": (
        "CoordinatorAndProtocol",
        "CoordinatorDisjointnessProtocol",
        "CoordinatorTrivialDisjointness",
        "RingTokenAndProtocol",
    ),
    "runtime": ("run_on_medium",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
    "MediumProtocol",
    "run_on_medium",
    "per_view_information",
    "CoordinatorTrivialDisjointness",
    "CoordinatorDisjointnessProtocol",
    "CoordinatorAndProtocol",
    "RingTokenAndProtocol",
]
