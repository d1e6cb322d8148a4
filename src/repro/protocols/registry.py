"""A registry of every shipped protocol with a certified input family.

``ALL_PROTOCOLS`` pairs each concrete :class:`~repro.core.model.Protocol`
class exported by :mod:`repro.protocols` with a small instance and an
input family on which exact analysis is cheap, so test suites can sweep
*every* protocol — model discipline, runner round-trips, adversarial
boards — with one parametrized loop instead of a hand-maintained list
that silently goes stale when a protocol is added.

``tests/protocols/test_model_discipline.py`` asserts the registry is
complete: every ``Protocol`` subclass reachable from
``repro.protocols.__all__`` must appear here.

Entries are factories, not instances: registry users get a fresh
protocol per test, so stateful bugs in one test cannot leak into the
next, and the functional entry's ``random.Random`` is re-seeded on every
build.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from ..core.model import Protocol
from .and_protocols import (
    FullBroadcastAndProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)
from .composition import SequentialCompositionProtocol
from .functional import random_boolean_protocol
from .naive_disjointness import NaiveDisjointnessProtocol
from .optimal_disjointness import OptimalDisjointnessProtocol
from .promise import PromiseUniqueIntersectionProtocol
from .trivial import TrivialDisjointnessProtocol
from .twoparty import (
    TwoPartyDisjointnessProtocol,
    TwoPartySparseIntersectionProtocol,
)
from .union import UnionProtocol

__all__ = ["ProtocolCase", "ALL_PROTOCOLS", "protocol_case"]


@dataclass(frozen=True)
class ProtocolCase:
    """One registry entry: a named factory plus its valid input family."""

    name: str
    factory: Callable[[], Protocol]
    inputs: Callable[[], List[Tuple[Any, ...]]]
    #: What makes the input family valid (promises, sparsity, ...).
    notes: str = ""

    def build(self) -> Protocol:
        return self.factory()

    def input_tuples(self) -> List[Tuple[Any, ...]]:
        return self.inputs()


def _bits(k: int) -> Callable[[], List[Tuple[int, ...]]]:
    return lambda: list(itertools.product((0, 1), repeat=k))


def _masks(n: int, k: int) -> Callable[[], List[Tuple[int, ...]]]:
    return lambda: list(itertools.product(range(1 << n), repeat=k))


def _sparse_masks(n: int, s: int) -> List[Tuple[int, int]]:
    """Two-party inputs where Alice keeps the sparsity promise."""
    return [
        (a, b)
        for a in range(1 << n)
        if bin(a).count("1") <= s
        for b in range(1 << n)
    ]


def _promise_masks(n: int, k: int) -> List[Tuple[int, ...]]:
    """Input tuples honoring the unique-intersection promise: pairwise
    disjoint sets except for at most one element common to *all*."""
    tuples = []
    for masks in itertools.product(range(1 << n), repeat=k):
        union_pairs_disjoint = True
        common = masks[0]
        for mask in masks[1:]:
            common &= mask
        for i in range(k):
            for j in range(i + 1, k):
                overlap = masks[i] & masks[j]
                if overlap and overlap != common:
                    union_pairs_disjoint = False
        if union_pairs_disjoint and bin(common).count("1") <= 1:
            tuples.append(masks)
    return tuples


def _composition_inputs() -> List[Tuple[Tuple[int, ...], ...]]:
    """Per-player inputs of a 2-copy composition: each player holds one
    bit per copy."""
    per_player = list(itertools.product((0, 1), repeat=2))
    return list(itertools.product(per_player, repeat=2))


ALL_PROTOCOLS: Tuple[ProtocolCase, ...] = (
    ProtocolCase(
        name="sequential-and",
        factory=lambda: SequentialAndProtocol(4),
        inputs=_bits(4),
    ),
    ProtocolCase(
        name="full-broadcast-and",
        factory=lambda: FullBroadcastAndProtocol(3),
        inputs=_bits(3),
    ),
    ProtocolCase(
        name="noisy-sequential-and",
        factory=lambda: NoisySequentialAndProtocol(3, 0.2),
        inputs=_bits(3),
    ),
    ProtocolCase(
        name="trivial-disjointness",
        factory=lambda: TrivialDisjointnessProtocol(3, 2),
        inputs=_masks(3, 2),
    ),
    ProtocolCase(
        name="naive-disjointness",
        factory=lambda: NaiveDisjointnessProtocol(3, 2),
        inputs=_masks(3, 2),
    ),
    ProtocolCase(
        name="optimal-disjointness",
        factory=lambda: OptimalDisjointnessProtocol(3, 2),
        inputs=_masks(3, 2),
    ),
    ProtocolCase(
        name="union",
        factory=lambda: UnionProtocol(3, 2),
        inputs=_masks(3, 2),
    ),
    ProtocolCase(
        name="two-party-disjointness",
        factory=lambda: TwoPartyDisjointnessProtocol(3),
        inputs=_masks(3, 2),
    ),
    ProtocolCase(
        name="two-party-sparse-intersection",
        factory=lambda: TwoPartySparseIntersectionProtocol(3, 2),
        inputs=lambda: _sparse_masks(3, 2),
        notes="Alice's set has at most s=2 elements (protocol promise)",
    ),
    ProtocolCase(
        name="promise-unique-intersection",
        factory=lambda: PromiseUniqueIntersectionProtocol(3, 2),
        inputs=lambda: _promise_masks(3, 2),
        notes="sets pairwise disjoint except at most one common element",
    ),
    ProtocolCase(
        name="sequential-composition",
        factory=lambda: SequentialCompositionProtocol(
            SequentialAndProtocol(2), 2
        ),
        inputs=_composition_inputs,
        notes="each player holds a bit per copy (2 copies of AND_2)",
    ),
    ProtocolCase(
        name="functional-random",
        factory=lambda: random_boolean_protocol(3, random.Random(0)),
        inputs=_bits(3),
        notes="seeded random FunctionalProtocol (fresh Random(0) per build)",
    ),
)


def protocol_case(name: str) -> ProtocolCase:
    for case in ALL_PROTOCOLS:
        if case.name == name:
            return case
    raise KeyError(
        f"unknown protocol case {name!r}; known: "
        f"{[case.name for case in ALL_PROTOCOLS]}"
    )
