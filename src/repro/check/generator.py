"""Seeded generation of arbitrary valid broadcast protocols.

This is the generative half of the fuzz harness: given a master seed
and a case index it produces a :class:`GeneratedCase` — a random but
fully deterministic protocol over a small input space, together with a
random input distribution — whose model discipline is certified with
:func:`repro.core.validate.validate_protocol` by the harness before any
differential oracle runs.

Randomness discipline
---------------------
Unlike :func:`repro.protocols.random_boolean_protocol` (which draws its
biases lazily from a shared ``random.Random`` and therefore depends on
lookup order), every random quantity here is derived by hashing the
case seed together with the query context (position, speaker input,
board bits).  ``message_distribution`` is thus a *pure function* of its
arguments — the exact analyzer, the batched walk, the runner, and a
replay on another machine all see identical distributions, which is
exactly the property the bit-identity oracles rely on.

Structure of a generated protocol (see :class:`~repro.check.spec.CaseSpec`):

* random speaking order over ``k`` players;
* per-position prefix-free message alphabets (random binary-tree leaf
  sets, 1–4 words of mixed lengths), so transcripts are self-delimiting
  by construction;
* board-determined halting: a fixed position budget plus optional
  per-position halt words that end the protocol early;
* private randomness folded into the message distributions (some are
  point masses, making sub-runs deterministic);
* optional public-coin positions whose law ignores the speaker's input.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..core.model import Link, Message, Protocol, Transcript
from ..information.distribution import DiscreteDistribution
from ..topology.protocol import MediumProtocol
from .spec import CaseSpec

__all__ = [
    "GeneratedProtocol",
    "GeneratedCoordinatorProtocol",
    "GeneratedCase",
    "derive_rng",
    "random_prefix_code",
    "random_spec",
    "case_from_spec",
    "generate_case",
]

#: Bounds on a random case, so exact analysis stays cheap: the protocol
#: tree has at most ``_MAX_ALPHABET**_MAX_POSITIONS`` leaves and the
#: joint input space at most ``_MAX_INPUT_VALUES**_MAX_PLAYERS`` tuples.
_MAX_PLAYERS = 3
_MAX_POSITIONS = 5
_MAX_ALPHABET = 3
_MAX_INPUT_VALUES = 3


def derive_rng(*parts: Any) -> random.Random:
    """A ``random.Random`` seeded by hashing the given parts.

    SHA-256 over the ``repr`` of the parts gives call-order-independent
    determinism: the same query always sees the same stream, regardless
    of which analyzer asks first (and across processes, unlike
    ``hash()``, which is salted per interpreter).
    """
    digest = hashlib.sha256("|".join(repr(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_prefix_code(rng: random.Random, size: int) -> Tuple[str, ...]:
    """A random prefix-free code with ``size`` non-empty words.

    Built by splitting leaves of a binary tree: start from the
    one-word code ``{"0" or "1"}``'s parent and split random leaves
    until ``size`` leaves exist.  Leaves of a binary tree are
    prefix-free by construction.
    """
    if size < 1:
        raise ValueError(f"need at least one codeword, got {size}")
    if size == 1:
        return (rng.choice("01"),)
    words: List[str] = ["0", "1"]
    while len(words) < size:
        victim = words.pop(rng.randrange(len(words)))
        words.append(victim + "0")
        words.append(victim + "1")
    rng.shuffle(words)
    return tuple(words)


class GeneratedProtocol(Protocol):
    """The protocol a :class:`~repro.check.spec.CaseSpec` describes.

    State is the pair ``(messages_written, halted)`` folded
    incrementally by :meth:`advance_state`, so the replay-consistency
    checks of :func:`repro.core.validate.validate_protocol` are
    exercised for real (not vacuously on ``None`` states).
    """

    def __init__(self, spec: CaseSpec) -> None:
        super().__init__(spec.num_players)
        self._spec = spec
        self._public = frozenset(spec.public_positions)

    @property
    def spec(self) -> CaseSpec:
        return self._spec

    # ------------------------------------------------------------------
    # Board-state folding.
    # ------------------------------------------------------------------
    def initial_state(self) -> Tuple[int, bool]:
        return (0, False)

    def advance_state(self, state: Any, message: Message) -> Tuple[int, bool]:
        count, halted = state
        halt_word = (
            self._spec.halt_words[count]
            if count < self._spec.num_positions
            else None
        )
        return (count + 1, halted or message.bits == halt_word)

    # ------------------------------------------------------------------
    # Protocol logic.
    # ------------------------------------------------------------------
    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        count, halted = state
        if halted or count >= self._spec.num_positions:
            return None
        return self._spec.speaking_order[count]

    def message_distribution(
        self,
        state: Any,
        player: int,
        player_input: Any,
        board: Transcript,
    ) -> DiscreteDistribution:
        position = len(board)
        code = self._spec.codes[position]
        # Public-coin positions ignore the speaker's input entirely: the
        # written word is randomness every player can read off the board.
        key = None if position in self._public else player_input
        rng = derive_rng(self._spec.seed, "msg", position, key, board.bit_string())
        if len(code) == 1 or rng.random() < 0.25:
            return DiscreteDistribution.point_mass(rng.choice(code))
        weights = {word: rng.random() + 0.05 for word in code}
        return DiscreteDistribution(weights, normalize=True)

    def output(self, state: Any, board: Transcript) -> int:
        rng = derive_rng(self._spec.seed, "out", board.bit_string())
        return rng.randrange(2)


class GeneratedCoordinatorProtocol(MediumProtocol):
    """A seeded random protocol on the coordinator medium, view-local by
    construction.

    The coordinator-model half of the fuzz harness (the
    ``topology-discipline`` oracle).  ``k`` players hold bits; the
    schedule is fixed by the message count: for each player ``i`` in
    order, the hub (node ``k``) sends a 1-bit weighted coin on player
    ``i``'s private link, then player ``i`` replies with a word from its
    own prefix code.  Every law is derived by hashing the case seed with
    the *speaker's own view*:

    * the hub sees every link, so its coin is keyed on the full
      transcript bit string;
    * player ``i`` sees only its own link, so its reply law is keyed on
      the bits carried by that link alone (plus its input) — keying on
      anything more is exactly the ``view-leak`` defect
      :func:`repro.check.mutations.wrap_topology_bug` plants.

    The hub's early coins inject traffic that later speakers cannot see,
    so a leaked law *provably* differs across global transcripts that
    share the speaker's view — which is what makes the planted bug
    detectable by :func:`repro.core.validate.validate_protocol` with
    ``medium=COORDINATOR``.
    Player codes have >= 2 words and every law has full support, keeping
    the protocol tree rich; per (speaker, view) the supported words stay
    inside one fixed code, so prefix-freeness holds by construction.
    """

    def __init__(self, seed: int, num_players: int) -> None:
        if num_players < 2:
            raise ValueError(f"need at least two players, got {num_players}")
        super().__init__(num_players)
        self._seed = seed
        code_rng = derive_rng(seed, "codes")
        self._codes = tuple(
            random_prefix_code(code_rng, code_rng.randint(2, 3))
            for _ in range(num_players)
        )

    @property
    def seed(self) -> int:
        return self._seed

    def player_code(self, player: int) -> Tuple[str, ...]:
        return self._codes[player]

    # ------------------------------------------------------------------
    # Transcript-state folding: the message count.
    # ------------------------------------------------------------------
    def initial_state(self) -> int:
        return 0

    def advance_state(self, state: Any, message: Message) -> int:
        return state + 1

    # ------------------------------------------------------------------
    # Protocol logic.
    # ------------------------------------------------------------------
    def next_edge(
        self, state: Any, transcript: Transcript
    ) -> Optional[Tuple[int, Any]]:
        k = self.num_players
        if state >= 2 * k:
            return None
        target = state // 2
        if state % 2 == 0:
            return (k, Link(target, k))  # hub polls player `target`
        return (target, Link(target, k))  # player `target` replies

    def _own_view_bits(self, transcript: Transcript, node: int) -> str:
        """The concatenated bits on ``node``'s own link — all a player
        can see in the coordinator model."""
        own = Link(node, self.num_players)
        return "".join(m.bits for m in transcript if m.link == own)

    def message_distribution(
        self,
        state: Any,
        speaker: int,
        speaker_input: Any,
        transcript: Transcript,
    ) -> DiscreteDistribution:
        k = self.num_players
        if speaker == k:
            # The hub's coin, keyed on its full view (it reads all links).
            rng = derive_rng(
                self._seed, "hub", state, transcript.bit_string()
            )
            p_one = 0.1 + 0.8 * rng.random()
            return DiscreteDistribution({"1": p_one, "0": 1.0 - p_one})
        code = self._codes[speaker]
        rng = derive_rng(
            self._seed,
            "ply",
            speaker,
            speaker_input,
            self._own_view_bits(transcript, speaker),
        )
        weights = {word: rng.random() + 0.05 for word in code}
        return DiscreteDistribution(weights, normalize=True)

    def output(self, state: Any, transcript: Transcript) -> int:
        rng = derive_rng(self._seed, "out", transcript.bit_string())
        return rng.randrange(2)

    def input_tuples(self) -> List[Tuple[int, ...]]:
        """Every binary input tuple — the oracle's exhaustive family."""
        return list(itertools.product((0, 1), repeat=self.num_players))


@dataclass(frozen=True)
class GeneratedCase:
    """One fuzz case: the protocol, its input family, and the input law."""

    index: int
    spec: CaseSpec
    protocol: GeneratedProtocol
    input_dist: DiscreteDistribution = field(compare=False)

    @property
    def input_tuples(self) -> List[Tuple[int, ...]]:
        return sorted(self.input_dist.support())


def _input_distribution(spec: CaseSpec) -> DiscreteDistribution:
    """A random full-support distribution over the joint input space.

    Half the time uniform, otherwise independently weighted per tuple
    (so correlated inputs occur); always full support, so reachability
    never degenerates.
    """
    tuples = list(itertools.product(*(range(s) for s in spec.input_space)))
    rng = derive_rng(spec.seed, "input-dist")
    if rng.random() < 0.5:
        return DiscreteDistribution.uniform(tuples)
    weights = {t: rng.random() + 0.1 for t in tuples}
    return DiscreteDistribution(weights, normalize=True)


def random_spec(rng: random.Random, seed: int) -> CaseSpec:
    """Draw a random :class:`CaseSpec` within the ``_MAX_*`` bounds."""
    num_players = rng.randint(2, _MAX_PLAYERS)
    positions = rng.randint(1, _MAX_POSITIONS)
    speaking_order = tuple(rng.randrange(num_players) for _ in range(positions))
    codes = tuple(
        random_prefix_code(rng, rng.randint(1, _MAX_ALPHABET))
        for _ in range(positions)
    )
    halt_words: List[Optional[str]] = []
    for pos in range(positions):
        # Halt words on non-final positions only (a halt word on the
        # last position is a no-op); multi-word codes only, so the
        # protocol cannot be constantly halting.
        if pos < positions - 1 and len(codes[pos]) > 1 and rng.random() < 0.3:
            halt_words.append(rng.choice(codes[pos]))
        else:
            halt_words.append(None)
    public_positions = tuple(
        pos for pos in range(positions) if rng.random() < 0.2
    )
    input_space = tuple(
        rng.randint(2, _MAX_INPUT_VALUES) for _ in range(num_players)
    )
    return CaseSpec(
        seed=seed,
        num_players=num_players,
        input_space=input_space,
        speaking_order=speaking_order,
        codes=codes,
        halt_words=tuple(halt_words),
        public_positions=public_positions,
    )


def case_from_spec(spec: CaseSpec, *, index: int = -1) -> GeneratedCase:
    """Rebuild the full case a spec describes (used by bundle replay)."""
    return GeneratedCase(
        index=index,
        spec=spec,
        protocol=GeneratedProtocol(spec),
        input_dist=_input_distribution(spec),
    )


def generate_case(master_seed: int, index: int) -> GeneratedCase:
    """The ``index``-th case of the seeded stream ``master_seed``.

    Each case's spec seed is hashed from ``(master_seed, index)``, so
    cases are independent and any single case can be regenerated
    without replaying the stream.
    """
    rng = derive_rng(master_seed, "case", index)
    case_seed = rng.getrandbits(48)
    spec = random_spec(rng, case_seed)
    return case_from_spec(spec, index=index)
