"""Concrete blackboard protocols: the paper's disjointness protocols
(trivial, naive intro protocol, optimal Section 5 protocol), the AND
protocols of Sections 4 and 6, two-party baselines, and functional /
random protocol builders for property testing."""

from .._lazy import lazy_exports

_EXPORTS = {
    "and_protocols": (
        "FullBroadcastAndProtocol",
        "NoisySequentialAndProtocol",
        "SequentialAndProtocol",
    ),
    "composition": ("SequentialCompositionProtocol", "product_scenarios"),
    "functional": ("FunctionalProtocol", "random_boolean_protocol"),
    "naive_disjointness": ("NaiveDisjointnessProtocol",),
    "optimal_disjointness": ("OptimalDisjointnessProtocol",),
    "trivial": ("TrivialDisjointnessProtocol",),
    "twoparty": (
        "TwoPartyDisjointnessProtocol",
        "TwoPartySparseIntersectionProtocol",
    ),
    "promise": ("PromiseUniqueIntersectionProtocol",),
    "registry": ("ALL_PROTOCOLS", "ProtocolCase", "protocol_case"),
    "union": ("UnionProtocol",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ALL_PROTOCOLS",
    "ProtocolCase",
    "protocol_case",
    "SequentialAndProtocol",
    "FullBroadcastAndProtocol",
    "NoisySequentialAndProtocol",
    "FunctionalProtocol",
    "random_boolean_protocol",
    "SequentialCompositionProtocol",
    "product_scenarios",
    "TrivialDisjointnessProtocol",
    "NaiveDisjointnessProtocol",
    "OptimalDisjointnessProtocol",
    "TwoPartyDisjointnessProtocol",
    "TwoPartySparseIntersectionProtocol",
    "UnionProtocol",
    "PromiseUniqueIntersectionProtocol",
]
