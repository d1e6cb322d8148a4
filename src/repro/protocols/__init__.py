"""Concrete blackboard protocols: the paper's disjointness protocols
(trivial, naive intro protocol, optimal Section 5 protocol), the AND
protocols of Sections 4 and 6, two-party baselines, and functional /
random protocol builders for property testing."""

from .and_protocols import (
    FullBroadcastAndProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)
from .composition import SequentialCompositionProtocol, product_scenarios
from .functional import FunctionalProtocol, random_boolean_protocol
from .naive_disjointness import NaiveDisjointnessProtocol
from .optimal_disjointness import OptimalDisjointnessProtocol
from .trivial import TrivialDisjointnessProtocol
from .twoparty import (
    TwoPartyDisjointnessProtocol,
    TwoPartySparseIntersectionProtocol,
)
from .promise import PromiseUniqueIntersectionProtocol
from .registry import ALL_PROTOCOLS, ProtocolCase, protocol_case
from .union import UnionProtocol

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
