"""Greedy spec-level shrinking of failing fuzz cases.

When an oracle flags a generated case, the raw instance is rarely the
most readable witness — it may have five positions, three-word codes and
27 input tuples when two positions and four tuples suffice.  The shrinker
repeatedly applies spec-to-spec reductions and keeps a reduction iff the
*same oracles still fail* on the rebuilt case, so the serialized bundle
ends with a (locally) minimal witness.

Reductions tried, in order of aggressiveness:

* drop a whole position (speaking-order entry, its code and halt word;
  later public-position indices shift down);
* shrink a player's input space by one value;
* remove a codeword from a multi-word code (clearing the halt word if it
  was the removed word);
* clear a halt word;
* drop a public-position marker.

Players are never removed: re-indexing the speaking order would change
which hashed randomness every remaining position sees, turning the
witness into a different case entirely.  Shrinking is deterministic —
candidates are tried in a fixed order and the first accepted reduction
restarts the scan — so a bundle's shrunk spec is reproducible from the
original spec alone.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .generator import GeneratedCase, case_from_spec
from .spec import CaseSpec

__all__ = ["shrink_case", "shrink_candidates"]

#: Ceiling on accepted reductions (a spec's complexity strictly drops on
#: every accepted step, so this is a backstop, not a tuning knob).
MAX_STEPS = 200


def shrink_candidates(spec: CaseSpec) -> Iterator[CaseSpec]:
    """All one-step reductions of ``spec``, most aggressive first."""
    positions = spec.num_positions
    # Drop one position entirely.
    for drop in range(positions):
        keep = [p for p in range(positions) if p != drop]
        yield spec.replaced(
            speaking_order=tuple(spec.speaking_order[p] for p in keep),
            codes=tuple(spec.codes[p] for p in keep),
            halt_words=tuple(spec.halt_words[p] for p in keep),
            public_positions=tuple(
                p if p < drop else p - 1
                for p in spec.public_positions
                if p != drop
            ),
        )
    # Shrink one player's input space.
    for player, size in enumerate(spec.input_space):
        if size > 1:
            smaller = list(spec.input_space)
            smaller[player] = size - 1
            yield spec.replaced(input_space=tuple(smaller))
    # Remove one codeword from a multi-word code.
    for position, code in enumerate(spec.codes):
        if len(code) < 2:
            continue
        for victim in code:
            codes = list(spec.codes)
            codes[position] = tuple(w for w in code if w != victim)
            halt_words = list(spec.halt_words)
            if halt_words[position] == victim:
                halt_words[position] = None
            yield spec.replaced(
                codes=tuple(codes), halt_words=tuple(halt_words)
            )
    # Clear one halt word.
    for position, word in enumerate(spec.halt_words):
        if word is not None:
            halt_words = list(spec.halt_words)
            halt_words[position] = None
            yield spec.replaced(halt_words=tuple(halt_words))
    # Drop one public-position marker.
    for position in spec.public_positions:
        yield spec.replaced(
            public_positions=tuple(
                p for p in spec.public_positions if p != position
            )
        )


def shrink_case(
    case: GeneratedCase,
    still_fails: Callable[[GeneratedCase], bool],
) -> GeneratedCase:
    """Greedily minimize ``case`` while ``still_fails`` holds.

    ``still_fails`` re-runs the originally-failing oracles on a candidate
    case; exceptions raised by it count as "still failing" (a reduction
    that turns a clean mismatch into a crash is still a witness, and
    arguably a better one).
    """
    current = case
    for _ in range(MAX_STEPS):
        reduced: Optional[GeneratedCase] = None
        for candidate_spec in shrink_candidates(current.spec):
            if candidate_spec.complexity() >= current.spec.complexity():
                continue
            candidate = case_from_spec(candidate_spec, index=current.index)
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = True
            if failing:
                reduced = candidate
                break
        if reduced is None:
            return current
        current = reduced
    return current
