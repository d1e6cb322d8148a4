"""Task (function) definitions: what the players are computing.

A :class:`Task` bundles the number of players, the function
:math:`f(X_1, \\ldots, X_k)`, and an enumeration of the input domain when
it is finite and small enough to enumerate.  The tasks of the paper:

* :func:`and_task` — one-bit :math:`\\mathrm{AND}_k`, the inner problem of
  the Section 4 lower bound and the Section 6 separation instance.
* :func:`or_task` — the auxiliary one-bit OR.
* :func:`disjointness_task` — :math:`\\mathrm{DISJ}_{n,k}`, with player
  inputs represented as integer bitmasks over the universe ``[n]``
  (coordinate ``j`` of player ``i`` is bit ``j`` of mask ``i``).  Following
  the paper, :math:`\\mathrm{DISJ} = \\neg \\bigvee_j \\bigwedge_i X_i^j`,
  i.e. the answer is 1 exactly when the sets are disjoint.

Outputs are always ``0``/``1`` integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Task",
    "and_task",
    "or_task",
    "disjointness_task",
    "union_task",
    "all_boolean_inputs",
    "boolean_inputs_with_zero_count",
    "set_to_mask",
]

#: Largest ``n * k`` whose bitmask domain (``2**(n*k)`` points) the
#: disjointness and union tasks enumerate.
_ENUMERABLE_LIMIT = 20


@dataclass(frozen=True)
class Task:
    """A ``k``-player function the blackboard protocol must compute.

    Attributes
    ----------
    name:
        Human-readable identifier (appears in benchmark output).
    num_players:
        ``k``.
    evaluate:
        Maps an input tuple (one entry per player) to the correct output.
    enumerate_inputs:
        Optional callable yielding every input tuple of the (finite)
        domain; ``None`` when the domain is too large to enumerate.
    """

    name: str
    num_players: int
    evaluate: Callable[[Sequence[Any]], int]
    enumerate_inputs: Optional[Callable[[], Iterator[Tuple[Any, ...]]]] = field(
        default=None, compare=False
    )

    def domain(self) -> List[Tuple[Any, ...]]:
        """The full input domain as a list (requires ``enumerate_inputs``)."""
        if self.enumerate_inputs is None:
            raise ValueError(f"task {self.name!r} has no enumerable domain")
        return list(self.enumerate_inputs())


# ----------------------------------------------------------------------
# Boolean one-bit tasks
# ----------------------------------------------------------------------
def all_boolean_inputs(k: int) -> Iterator[Tuple[int, ...]]:
    """All ``2**k`` assignments of one bit per player."""
    return itertools.product((0, 1), repeat=k)


def boolean_inputs_with_zero_count(k: int, zeros: int) -> Iterator[Tuple[int, ...]]:
    """All one-bit input tuples with exactly ``zeros`` zero entries.

    This is the input class :math:`\\mathcal{X}_c` of the Section 4
    analysis.
    """
    for positions in itertools.combinations(range(k), zeros):
        bits = [1] * k
        for position in positions:
            bits[position] = 0
        yield tuple(bits)


def and_task(k: int) -> Task:
    """One-bit :math:`\\mathrm{AND}_k`: output 1 iff every player holds 1."""
    return Task(
        name=f"AND_{k}",
        num_players=k,
        evaluate=lambda inputs: int(all(inputs)),
        enumerate_inputs=lambda: all_boolean_inputs(k),
    )


def or_task(k: int) -> Task:
    """One-bit :math:`\\mathrm{OR}_k`: output 1 iff some player holds 1."""
    return Task(
        name=f"OR_{k}",
        num_players=k,
        evaluate=lambda inputs: int(any(inputs)),
        enumerate_inputs=lambda: all_boolean_inputs(k),
    )


# ----------------------------------------------------------------------
# Set disjointness
# ----------------------------------------------------------------------
def set_to_mask(coordinates: Iterable[int], n: int) -> int:
    """Encode a subset of ``{0, ..., n-1}`` as an integer bitmask."""
    mask = 0
    for coordinate in coordinates:
        if not 0 <= coordinate < n:
            raise ValueError(
                f"coordinate {coordinate} outside universe of size {n}"
            )
        mask |= 1 << coordinate
    return mask


def disjointness_task(n: int, k: int) -> Task:
    """:math:`\\mathrm{DISJ}_{n,k}` over integer-bitmask inputs.

    Output 1 iff :math:`\\bigcap_i X_i = \\emptyset`, matching the paper's
    :math:`\\mathrm{DISJ} = \\neg\\bigvee_j \\bigwedge_i X_i^j`.

    The domain enumeration is only provided when ``n * k`` is at most
    :data:`_ENUMERABLE_LIMIT` (the domain has ``2**(n*k)`` points).
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")

    def evaluate(inputs: Sequence[int]) -> int:
        intersection = (1 << n) - 1
        for mask in inputs:
            intersection &= mask
        return int(intersection == 0)

    enumerate_inputs = None
    if n * k <= _ENUMERABLE_LIMIT:
        def enumerate_inputs() -> Iterator[Tuple[int, ...]]:
            return itertools.product(range(1 << n), repeat=k)

    return Task(
        name=f"DISJ_{{{n},{k}}}",
        num_players=k,
        evaluate=evaluate,
        enumerate_inputs=enumerate_inputs,
    )


def union_task(n: int, k: int) -> Task:
    """Pointwise-OR over integer-bitmask inputs: the output is the union
    mask :math:`\\bigcup_i X_i` (coordinate ``j`` of the output is
    :math:`\\bigvee_i X_i^j`).

    This is the pointwise-Boolean family the introduction cites from
    [24], where symmetrization gives an :math:`\\Omega(n \\log k)` lower
    bound.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")

    def evaluate(inputs: Sequence[int]) -> int:
        union = 0
        for mask in inputs:
            union |= mask
        return union

    enumerate_inputs = None
    if n * k <= _ENUMERABLE_LIMIT:
        def enumerate_inputs() -> Iterator[Tuple[int, ...]]:
            return itertools.product(range(1 << n), repeat=k)

    return Task(
        name=f"UNION_{{{n},{k}}}",
        num_players=k,
        evaluate=evaluate,
        enumerate_inputs=enumerate_inputs,
    )
