"""Reference implementations with deliberately plantable bugs.

Every oracle in :mod:`repro.check.oracles` compares the
production code against an independent reference implementation kept
here.  Each reference accepts a ``bug`` argument: ``None`` gives the
faithful copy (the reference side of the differential test), while one
of the names in the function's ``BUGS`` tuple plants a specific,
realistic defect (an off-by-one, a dropped term, a skipped round).

The planted bugs are the harness's *mutation self-tests*: for every bug
there is a pinned fuzz case on which the corresponding oracle provably
reports a failure (``tests/check/test_oracles.py``), so the oracles'
statistical power is itself under test — an oracle whose tolerance is so
loose it would miss a real regression fails its own self-test first.

Nothing here is used by production code; the faithful copies are
*intentionally* independent re-derivations (Bayes updates along
transcripts instead of the mutual-information fold, per-player factors
instead of the walk, a mini-runtime instead of the medium runner) so
that a shared bug between subject and reference is unlikely.  The
exact engine's retired twins live here too, without planted bugs: the
dict-driven shared walk and dict fold (section 1a), which
:func:`reference_engines` swaps into production with the other
size-selected references (section 9).
"""

from __future__ import annotations

import math
import random
import sys
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.model import (
    BROADCAST,
    EMPTY_TRANSCRIPT,
    Medium,
    Message,
    Protocol,
    ProtocolViolation,
    Transcript,
)
from ..information.distribution import DiscreteDistribution, JointDistribution

__all__ = [
    "CHAIN_RULE_BUGS",
    "FACTOR_BUGS",
    "DISCIPLINE_BUGS",
    "TOPOLOGY_BUGS",
    "shared_walk_reference",
    "shared_walk_joint",
    "REFERENCE_ENGINES",
    "reference_engines",
    "reference_sorted_leaves",
    "class_probability_reference",
    "chain_rule_information",
    "factor_probability",
    "BrokenPrefixProtocol",
    "ImpureStateProtocol",
    "wrap_discipline_bug",
    "wrap_topology_bug",
    "topology_run_reference",
]


def _check_bug(bug: Optional[str], allowed: Tuple[str, ...]) -> None:
    if bug is not None and bug not in allowed:
        raise ValueError(f"unknown planted bug {bug!r}; known: {allowed}")


# ----------------------------------------------------------------------
# 1a. Dict-driven shared walk and dict fold (reference for the one
#     tree-walk engine, on every medium).
# ----------------------------------------------------------------------
def shared_walk_reference(
    protocol: Protocol,
    input_keys: Sequence[Tuple[Any, ...]],
    *,
    medium: Medium = BROADCAST,
) -> Tuple[Tuple[List[int], List[Transcript], List[float]], int, int, int]:
    """The dict-driven shared walk that ran the exact analyzer before
    the array engine took over, kept as its medium-aware reference.

    Returns ``(leaf_table, nodes_expanded, union_leaves, max_depth)``
    where ``leaf_table = (counts, boards, probabilities)`` concatenates
    every input's leaf entries in input order — ``counts[j]`` rows for
    ``input_keys[j]``, each row already in that input's per-input DFS
    leaf order.  The same contract as
    :func:`repro.perf.kernels.tree_walk_sorted_leaves` (whose
    :meth:`~repro.perf.kernels.SortedLeaves.rows` must equal this table),
    so the caller's accumulation is engine-independent.
    """
    Groups = Dict[Tuple[Any, ...], Tuple[float, Tuple[int, ...]]]
    leaves_by_key: Dict[
        Tuple[Any, ...], List[Tuple[Tuple[int, ...], Transcript, float]]
    ] = {key: [] for key in input_keys}
    union_leaves: Dict[Transcript, None] = {}
    nodes_expanded = 0
    max_depth = 0
    k = protocol.num_players
    num_nodes = medium.num_nodes(k)
    max_messages = protocol.max_messages
    root_groups: Groups = {key: (1.0, ()) for key in input_keys}
    stack: List[Tuple[Any, Transcript, Groups]] = [
        (protocol.initial_state(), EMPTY_TRANSCRIPT, root_groups)
    ]
    while stack:
        state, board, groups = stack.pop()
        nodes_expanded += 1
        if len(board) > max_messages:
            raise ProtocolViolation(
                f"protocol exceeded {max_messages} messages during exact "
                "enumeration"
            )
        if len(board) > max_depth:
            max_depth = len(board)
        edge = protocol.next_edge(state, board)
        if edge is None:
            union_leaves[board] = None
            for key, (prob, index_path) in groups.items():
                leaves_by_key[key].append((index_path, board, prob))
            continue
        speaker, link = edge
        if not 0 <= speaker < num_nodes:
            raise ProtocolViolation(
                f"next_edge returned invalid player {speaker!r}"
            )
        medium.check_edge(k, speaker, link)
        # Partition the population by the speaking player's input — the
        # only coordinate the next message law may depend on (Lemma 3).
        # An input-less node keys every tuple to None: one partition.
        partitions: Dict[Any, List[Tuple[Any, ...]]] = {}
        if speaker < k:
            for key in groups:
                partitions.setdefault(key[speaker], []).append(key)
        else:
            partitions[None] = list(groups)
        children: Dict[str, Tuple[Message, Groups]] = {}
        for speaker_input, keys in partitions.items():
            dist = protocol.message_distribution(
                state, speaker, speaker_input, board
            )
            for index, (bits, p) in enumerate(dist.items()):
                if p <= 0.0:
                    continue
                if bits == "":
                    raise ProtocolViolation(
                        "protocols may not write empty messages"
                    )
                child = children.get(bits)
                if child is None:
                    child = children[bits] = (
                        Message(speaker, bits, link),
                        {},
                    )
                child_groups = child[1]
                for key in keys:
                    prob, index_path = groups[key]
                    child_groups[key] = (prob * p, index_path + (index,))
        for bits, (message, child_groups) in children.items():
            stack.append(
                (
                    protocol.advance_state(state, message),
                    board.extend(message),
                    child_groups,
                )
            )

    # Sort each input's leaves into its per-input DFS order (descending
    # lexicographic index path), then flatten into the engine-shared
    # (counts, boards, probabilities) leaf table — flat parallel lists
    # avoid materializing one pair tuple per (input, leaf) row.
    counts: List[int] = []
    boards_flat: List[Transcript] = []
    probs_flat: List[float] = []
    for key in input_keys:
        entries = leaves_by_key[key]
        entries.sort(key=lambda entry: entry[0], reverse=True)
        counts.append(len(entries))
        for _path, board, prob in entries:
            boards_flat.append(board)
            probs_flat.append(prob)
    return (
        (counts, boards_flat, probs_flat),
        nodes_expanded,
        len(union_leaves),
        max_depth,
    )


def _assemble_joint(
    population: Any, laws: List[DiscreteDistribution]
) -> Dict[Tuple[Any, ...], float]:
    """Scenario mass in scenario/transcript iteration order — the dict
    fold's joint, before normalization (``population`` is a
    :class:`repro.perf.kernels.InputColumns`)."""
    member = population.member
    if member is None:
        rows: Iterable[int] = range(len(population.outcomes))
    else:
        rows = member.tolist()
    wrapped = population.scenario is None
    probs: Dict[Tuple[Any, ...], float] = {}
    for outcome, p_scenario, row in zip(
        population.outcomes, population.p.tolist(), rows
    ):
        scenario = (outcome,) if wrapped else outcome
        for transcript, p_transcript in laws[row].items():
            key = scenario + (transcript,)
            probs[key] = probs.get(key, 0.0) + p_scenario * p_transcript
    return probs


def _laws_from_table(
    table: Tuple[List[int], List[Transcript], List[float]]
) -> List[DiscreteDistribution]:
    """Each input's normalized transcript law from its leaf rows."""
    counts, boards, probs = table
    laws: List[DiscreteDistribution] = []
    pos = 0
    for count in counts:
        leaves: Dict[Transcript, float] = {}
        for row in range(pos, pos + count):
            leaves[boards[row]] = leaves.get(boards[row], 0.0) + probs[row]
        laws.append(DiscreteDistribution(leaves, normalize=True))
        pos += count
    return laws


def shared_walk_joint(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    medium: Medium = BROADCAST,
) -> JointDistribution:
    """The joint ``(scenario..., transcript)`` law from
    :func:`shared_walk_reference` and the dict fold: what
    :func:`repro.core.tree.joint_transcript_distribution` must
    equal item for item."""
    from ..perf import kernels

    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    population = kernels.scenario_columns(scenarios, inputs_of)
    for key in population.inputs:
        protocol.validate_inputs(key)
    table, *_stats = shared_walk_reference(
        protocol, population.inputs, medium=medium
    )
    probs = _assemble_joint(population, _laws_from_table(table))
    full_names = tuple(names) + ("transcript",) if names is not None else None
    return JointDistribution(probs, names=full_names, normalize=True)


# ----------------------------------------------------------------------
# 2. Round-by-round chain rule (reference for I(Pi; X)).
# ----------------------------------------------------------------------
CHAIN_RULE_BUGS: Tuple[str, ...] = ("drop-last-round",)


def chain_rule_information(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    *,
    bug: Optional[str] = None,
) -> float:
    """:math:`I(\\Pi; X)` computed as the expected sum of *realized*
    per-round log-likelihood ratios (the Section 6 chain rule):

    .. math::
        IC = \\mathbb{E}_{x, \\pi} \\sum_r
            \\log_2 \\frac{\\eta_r(m_r)}{\\bar\\nu_r(m_r)},

    where :math:`\\eta_r` is the speaker's true message law given its
    input and :math:`\\bar\\nu_r` the observer's predictive law (the
    posterior over inputs given the board, pushed through the message
    laws).  This never calls the mutual-information machinery — the
    whole computation is Bayes updates along transcripts — so agreement
    with :func:`repro.core.analysis.external_information_cost` is a
    genuinely independent identity check.

    Planted bug ``"drop-last-round"`` omits the final round's term from
    every transcript's sum, mimicking an off-by-one over rounds.
    """
    _check_bug(bug, CHAIN_RULE_BUGS)
    # Message laws by (board, speaker's input): the state is a function
    # of the board here, replayed from the initial state.
    laws: Dict[Tuple[Transcript, Any], DiscreteDistribution] = {}
    (_, boards, _), *_stats = shared_walk_reference(
        protocol, [tuple(x) for x in input_dist.support()]
    )
    transcripts = dict.fromkeys(boards)

    total = 0.0
    for transcript in transcripts:
        rounds = list(transcript)
        limit = len(rounds) - 1 if bug == "drop-last-round" else len(rounds)
        # weights[x] = p(x) * Pr[board so far | x]; log_eta[x] = running
        # sum of log2 eta_{x,r}(m_r) over the realized rounds.
        weights: Dict[Tuple[Any, ...], float] = {
            tuple(x): p for x, p in input_dist.items() if p > 0.0
        }
        log_eta: Dict[Tuple[Any, ...], float] = {x: 0.0 for x in weights}
        log_nubar = 0.0
        state = protocol.initial_state()
        board = Transcript()
        for round_index, message in enumerate(rounds):
            speaker = message.speaker
            by_value: Dict[Any, List[Tuple[Any, ...]]] = {}
            for x in weights:
                by_value.setdefault(x[speaker], []).append(x)
            dists = {}
            for value in by_value:
                if (board, value) not in laws:
                    laws[(board, value)] = protocol.message_distribution(
                        state, speaker, value, board
                    )
                dists[value] = laws[(board, value)]
            mass = sum(weights[x] for x in weights)
            predicted = (
                sum(
                    sum(weights[x] for x in xs) * dists[value][message.bits]
                    for value, xs in by_value.items()
                )
                / mass
            )
            for value, xs in by_value.items():
                p_message = dists[value][message.bits]
                for x in xs:
                    if p_message <= 0.0:
                        weights[x] = 0.0
                    else:
                        weights[x] *= p_message
                        if round_index < limit:
                            log_eta[x] += math.log2(p_message)
            weights = {x: w for x, w in weights.items() if w > 0.0}
            if round_index < limit:
                log_nubar += math.log2(predicted)
            state = protocol.advance_state(state, message)
            board = board.extend(message)
        for x, weight in weights.items():
            total += weight * (log_eta[x] - log_nubar)
    return total


# ----------------------------------------------------------------------
# 3. Lemma 3 product decomposition (reference transcript probability).
# ----------------------------------------------------------------------
FACTOR_BUGS: Tuple[str, ...] = ("factor-wrong-player",)


def factor_probability(
    protocol: Protocol,
    transcript: Transcript,
    inputs: Sequence[Any],
    *,
    bug: Optional[str] = None,
) -> float:
    """:math:`\\Pr[\\Pi(inputs) = \\ell]` rebuilt from per-player Lemma 3
    factors :math:`q_{i, x_i}` accumulated along a replay of the
    transcript (an independent re-derivation of
    :func:`repro.lowerbounds.decomposition.transcript_factors`).

    Planted bug ``"factor-wrong-player"`` charges each message's
    probability to the *next* player (mod k) instead of the speaker —
    the factorization then uses the wrong input coordinate, breaking the
    rectangle structure whenever neighbouring players hold different
    inputs.
    """
    _check_bug(bug, FACTOR_BUGS)
    k = protocol.num_players
    factors = [1.0] * k
    state = protocol.initial_state()
    board = Transcript()
    for message in transcript:
        expected = protocol.next_speaker(state, board)
        if expected != message.speaker:
            raise ValueError(
                f"transcript names speaker {message.speaker} but the "
                f"protocol's turn function says {expected!r}"
            )
        speaker = message.speaker
        charged = (speaker + 1) % k if bug == "factor-wrong-player" else speaker
        dist = protocol.message_distribution(
            state, speaker, inputs[charged], board
        )
        factors[charged] *= dist[message.bits]
        state = protocol.advance_state(state, message)
        board = board.extend(message)
    product = 1.0
    for factor in factors:
        product *= factor
    return product


# ----------------------------------------------------------------------
# 6. Model-discipline mutants (wrappers around a generated protocol).
# ----------------------------------------------------------------------
DISCIPLINE_BUGS: Tuple[str, ...] = ("broken-prefix", "impure-state")


class BrokenPrefixProtocol(Protocol):
    """Delegates to a base protocol but, whenever the base's message law
    has several words, replaces the longest word with a *prefix clash*:
    the shortest word plus a suffix — exactly the self-delimitation bug
    ``check_prefix_free`` exists to catch."""

    def __init__(self, base: Protocol) -> None:
        super().__init__(base.num_players)
        self._base = base

    def initial_state(self) -> Any:
        return self._base.initial_state()

    def advance_state(self, state: Any, message: Message) -> Any:
        return self._base.advance_state(state, message)

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        return self._base.next_speaker(state, board)

    def output(self, state: Any, board: Transcript) -> Any:
        return self._base.output(state, board)

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        dist = self._base.message_distribution(state, player, player_input, board)
        words = sorted(dist.support(), key=len)
        if len(words) < 2:
            return dist
        shortest, longest = words[0], words[-1]
        clash = shortest + "0"
        probs = {
            (clash if word == longest else word): p for word, p in dist.items()
        }
        return DiscreteDistribution(probs, normalize=True)


class ImpureStateProtocol(Protocol):
    """Delegates to a base protocol but counts, in a table the hooks
    share, how many times ``advance_state`` has built each board, stamps
    every state with that count *and lets the turn function read it*:
    a state whose board was built before halts early.  The validator's
    walk builds each board once, while :meth:`Protocol.replay_state`'s
    from-scratch fold rebuilds every prefix, so replayed and incremental
    states disagree on the edge — the replay-consistency violation
    ``validate_protocol`` checks for.  The first build of a board always
    comes from its parent's expansion, whatever order boards are visited
    in, so whether the defect fires does not depend on iteration order
    (and hence not on ``PYTHONHASHSEED``).  (A pure ``advance_state``
    bug cannot trip that check, and a stamp that no hook reads is
    behaviorally invisible: replay folds through the very same
    function, so the defect has to be impure *and* observable.)
    """

    def __init__(self, base: Protocol) -> None:
        super().__init__(base.num_players)
        self._base = base
        self._builds: Dict[Tuple[Message, ...], int] = {}

    def initial_state(self) -> Any:
        return (self._base.initial_state(), (), 1)

    def advance_state(self, state: Any, message: Message) -> Any:
        base_state, messages, _stamp = state
        messages = messages + (message,)
        builds = self._builds[messages] = self._builds.get(messages, 0) + 1
        return (self._base.advance_state(base_state, message), messages, builds)

    def next_speaker(self, state: Any, board: Transcript) -> Optional[int]:
        base_state, _messages, stamp = state
        if stamp > 1:
            return None  # the stale stamp leaks into control flow
        return self._base.next_speaker(base_state, board)

    def output(self, state: Any, board: Transcript) -> Any:
        return self._base.output(state[0], board)

    def message_distribution(
        self, state: Any, player: int, player_input: Any, board: Transcript
    ) -> DiscreteDistribution:
        return self._base.message_distribution(
            state[0], player, player_input, board
        )


def wrap_discipline_bug(base: Protocol, bug: str) -> Protocol:
    """The mutant protocol for a model-discipline planted bug."""
    _check_bug(bug, DISCIPLINE_BUGS)
    if bug == "broken-prefix":
        return BrokenPrefixProtocol(base)
    return ImpureStateProtocol(base)


# ----------------------------------------------------------------------
# 8. Topology discipline (for repro.topology).
# ----------------------------------------------------------------------
TOPOLOGY_BUGS: Tuple[str, ...] = ("view-leak", "wrong-link-charge")


class _ViewLeakProtocol:
    """Delegates to a coordinator-medium protocol but keys every
    *player* message law on the **full** transcript bits — traffic on
    links the player cannot read.

    This is the canonical view-locality defect: the law still has the
    same support (prefix-freeness survives, the protocol runs fine), but
    its probabilities now vary across global transcripts that look
    identical from the speaker's seat.  The hub's early coins to other
    players guarantee such same-view pairs exist, so
    :func:`repro.core.validate.validate_protocol` (``medium=COORDINATOR``)
    must report a view-locality violation.
    """

    def __init__(self, base: Any) -> None:
        self._base = base

    @property
    def num_players(self) -> int:
        return self._base.num_players

    @property
    def max_messages(self) -> int:
        return self._base.max_messages

    def initial_state(self) -> Any:
        return self._base.initial_state()

    def advance_state(self, state: Any, message: Any) -> Any:
        return self._base.advance_state(state, message)

    def next_edge(self, state: Any, transcript: Any) -> Any:
        return self._base.next_edge(state, transcript)

    def output(self, state: Any, transcript: Any) -> Any:
        return self._base.output(state, transcript)

    def validate_inputs(self, inputs: Sequence[Any]) -> None:
        self._base.validate_inputs(inputs)

    def replay_state(self, transcript: Any) -> Any:
        state = self.initial_state()
        for message in transcript:
            state = self.advance_state(state, message)
        return state

    def message_distribution(
        self, state: Any, speaker: int, speaker_input: Any, transcript: Any
    ) -> DiscreteDistribution:
        from .generator import derive_rng

        dist = self._base.message_distribution(
            state, speaker, speaker_input, transcript
        )
        if speaker >= self._base.num_players or len(dist) < 2:
            return dist
        # Reweight by coins derived from the *global* transcript — the
        # leak.  Support is unchanged, so only locality breaks.
        leak = derive_rng("view-leak", speaker, transcript.bit_string())
        weights = {
            word: p * (0.25 + leak.random()) for word, p in dist.items()
        }
        return DiscreteDistribution(weights, normalize=True)


def wrap_topology_bug(base: Any, bug: str) -> Any:
    """The mutant protocol for a topology-discipline planted bug.

    Only ``"view-leak"`` mutates the protocol itself;
    ``"wrong-link-charge"`` is an accounting defect of the reference
    runner (:func:`topology_run_reference`), so the protocol passes
    through unchanged.
    """
    _check_bug(bug, TOPOLOGY_BUGS)
    if bug == "view-leak":
        return _ViewLeakProtocol(base)
    return base


def topology_run_reference(
    protocol: Any,
    medium: Any,
    inputs: Sequence[Any],
    seed: int,
    bug: Optional[str] = None,
) -> Dict[str, Any]:
    """An independent mini-runtime for medium protocols.

    Re-derives one execution literally — schedule, point-mass short
    circuit, an inline cumulative-walk sampler over ``dist.items()``
    (the same discipline as :meth:`~repro.information.distribution.
    DiscreteDistribution.sample`, re-implemented here so a sampling bug
    in the production runtime cannot hide), and per-link charging — and
    returns plain data for comparison against
    :func:`repro.core.runner.run_protocol` under the same seed.

    Planted bug ``"wrong-link-charge"`` charges every message to the
    *previous* message's link (the first to its own), the classic
    stale-variable accounting slip; totals still agree, but the per-link
    breakdown shifts wherever consecutive messages change links.
    """
    _check_bug(bug, TOPOLOGY_BUGS)
    protocol.validate_inputs(inputs)
    k = protocol.num_players
    rng = random.Random(seed)
    state = protocol.initial_state()
    transcript_rows: List[Tuple[int, Any, str]] = []
    bits_total = 0
    bits_by_link: Dict[Any, int] = {}
    previous_link: Any = None
    transcript = Transcript()
    while True:
        edge = protocol.next_edge(state, transcript)
        if edge is None:
            return {
                "transcript": tuple(transcript_rows),
                "output": protocol.output(state, transcript),
                "bits_communicated": bits_total,
                "bits_by_link": bits_by_link,
            }
        if len(transcript) == protocol.max_messages:
            raise ProtocolViolation("reference runtime did not halt")
        speaker, link = edge
        speaker_input = inputs[speaker] if speaker < k else None
        dist = protocol.message_distribution(
            state, speaker, speaker_input, transcript
        )
        if len(dist) == 1:
            (word,) = dist.support()
        else:
            u = rng.random()
            cumulative = 0.0
            word = None
            for candidate, p in dist.items():
                cumulative += p
                word = candidate
                if u < cumulative:
                    break
        charged_link = link
        if bug == "wrong-link-charge" and previous_link is not None:
            charged_link = previous_link
        bits_total += len(word)
        bits_by_link[charged_link] = bits_by_link.get(charged_link, 0) + len(word)
        previous_link = link
        transcript_rows.append((speaker, link, word))
        message = Message(speaker=speaker, bits=word, link=link)
        state = protocol.advance_state(state, message)
        transcript = transcript.extend(message)


# ----------------------------------------------------------------------
# 9. Reference engines swapped into production (tests and benchmarks).
# ----------------------------------------------------------------------
#: What :func:`reference_engines` swaps in, by the name it counts under.
REFERENCE_ENGINES: Tuple[str, ...] = ("walk", "fold", "recursion", "runner")


def reference_sorted_leaves(
    protocol: Protocol,
    input_keys: Sequence[Tuple[Any, ...]],
    *,
    codes: Any = None,
    span: int = 0,
    medium: Optional[Medium] = None,
) -> Tuple[Any, int, int, int]:
    """:func:`shared_walk_reference` behind the signature of
    :func:`repro.perf.kernels.tree_walk_sorted_leaves`: its leaf table
    packed as a :class:`~repro.perf.kernels.SortedLeaves`, leaf ids in
    first-seen board order.  ``codes`` and ``span`` are ignored; the
    dict walk partitions by the coordinates themselves."""
    from ..perf import kernels

    np_ = kernels.require_numpy()
    (counts, boards, probs), *stats = shared_walk_reference(
        protocol,
        input_keys,
        medium=BROADCAST if medium is None else medium,
    )
    ids: Dict[Transcript, int] = {}
    leaf_ids = [ids.setdefault(board, len(ids)) for board in boards]
    table = np_.empty(len(ids), dtype=object)
    for leaf_id, board in enumerate(ids):
        table[leaf_id] = board
    leaves = kernels.SortedLeaves(
        np_.array(counts, dtype=np_.int64),
        np_.array(leaf_ids, dtype=np_.int64),
        np_.array(probs, dtype=np_.float64),
        table,
    )
    return (leaves, *stats)


def class_probability_reference(factor_table: Any, class_matrix: Any) -> float:
    """:func:`repro.perf.kernels.class_conditioned_probabilities` as the
    scalar Lemma 3 fold: per input the factors multiply in ascending
    player order from 1.0, and the class total is builtin ``sum()``."""
    table = [row.tolist() for row in factor_table]
    products = []
    for x in class_matrix.tolist():
        product = 1.0
        for factors, bit in zip(table, x):
            product *= factors[bit]
        products.append(product)
    return sum(products) / len(products)


def _message_level(protocol_cls: Any) -> Callable[..., Tuple[int, Any]]:
    """A ``kernels.simulate_*_disjointness`` twin that runs the protocol
    message by message through its codecs."""
    from ..core.runner import run_protocol

    def simulate(n: int, k: int, inputs: Sequence[int]) -> Tuple[int, Any]:
        outcome = run_protocol(protocol_cls(n, k), inputs)
        return outcome.bits_communicated, outcome.output

    return simulate


def reference_engines(
    patch: Callable[[Any, str, Any], Any]
) -> Dict[str, int]:
    """Route every size-selected engine of the exact analyzer and the E1
    simulators to its reference, through ``patch`` (``pytest``'s
    ``monkeypatch.setattr``, so the test undoes it), and return the live
    count of calls each reference served, by :data:`REFERENCE_ENGINES`
    name:

    * ``walk`` -- :func:`reference_sorted_leaves` for the array walk;
    * ``fold`` -- the scalar folds: ``_VECTOR_MIN_SUPPORT`` above every
      support (a call counts when its array path declined), and
      :func:`class_probability_reference` for the Lemma 3 product;
    * ``recursion`` -- ``_E14_CELL_CAP = 0``, so every rectangle DP is
      the memoized recursion;
    * ``runner`` -- the optimal, naive and trivial disjointness
      protocols run message by message instead of by bigint simulator.
    """
    from ..perf import kernels
    from ..protocols.naive_disjointness import NaiveDisjointnessProtocol
    from ..protocols.optimal_disjointness import OptimalDisjointnessProtocol
    from ..protocols.trivial import TrivialDisjointnessProtocol

    calls = dict.fromkeys(REFERENCE_ENGINES, 0)

    def counted(
        name: str,
        function: Callable[..., Any],
        served: Callable[[Any], bool] = lambda _result: True,
    ) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = function(*args, **kwargs)
            if served(result):
                calls[name] += 1
            return result

        return wrapper

    patch(kernels, "tree_walk_sorted_leaves",
          counted("walk", reference_sorted_leaves))
    patch(kernels, "_VECTOR_MIN_SUPPORT", sys.maxsize)
    for name in ("mutual_information_fast",
                 "conditional_mutual_information_fast",
                 "per_player_divergence_sum_fast"):
        patch(kernels, name, counted(
            "fold", getattr(kernels, name), lambda result: result is None
        ))
    patch(kernels, "class_conditioned_probabilities",
          counted("fold", class_probability_reference))
    patch(kernels, "_E14_CELL_CAP", 0)
    patch(kernels, "minimum_entropy_supported", counted(
        "recursion", kernels.minimum_entropy_supported,
        lambda supported: not supported,
    ))
    for kind, protocol_cls in (
        ("optimal", OptimalDisjointnessProtocol),
        ("naive", NaiveDisjointnessProtocol),
        ("trivial", TrivialDisjointnessProtocol),
    ):
        patch(kernels, f"simulate_{kind}_disjointness",
              counted("runner", _message_level(protocol_cls)))
    return calls
