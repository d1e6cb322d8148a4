"""Reference implementations with deliberately plantable bugs.

Every differential oracle in :mod:`repro.check.oracles` compares the
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
*intentionally* independent re-derivations (per-input DFS instead of the
batched walk, naive :math:`O(k^2)` closed form instead of the prefix-sum
one, a literal dart loop without observability) so that a shared bug
between subject and reference is unlikely.  The exact engine's retired
twins live here too, without planted bugs: the dict-driven shared walk
and dict fold (section 1a), which :func:`reference_engines` swaps into
production with the other size-selected references (section 12).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import zlib
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
from ..core.tree import DEFAULT_MAX_MESSAGES
from ..information.distribution import DiscreteDistribution, JointDistribution

__all__ = [
    "TREE_BUGS",
    "VECTORIZED_BUGS",
    "COLUMN_BUGS",
    "CLOSED_FORM_BUGS",
    "CHAIN_RULE_BUGS",
    "FACTOR_BUGS",
    "DART_BUGS",
    "ESTIMATOR_BUGS",
    "DISCIPLINE_BUGS",
    "NET_BUGS",
    "BYZANTINE_BUGS",
    "STORE_BUGS",
    "FABRIC_BUGS",
    "TOPOLOGY_BUGS",
    "store_serve",
    "fabric_schedule_reference",
    "networked_reference",
    "byzantine_reference",
    "legacy_joint_transcript_distribution",
    "shared_walk_reference",
    "shared_walk_joint",
    "REFERENCE_ENGINES",
    "reference_engines",
    "reference_sorted_leaves",
    "class_probability_reference",
    "vectorized_reference",
    "columnar_information_cost",
    "closed_form_cic",
    "chain_rule_information",
    "factor_probability",
    "dart_rounds",
    "paired_samples",
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
# 1. Legacy per-input tree walk (reference for the batched enumeration).
# ----------------------------------------------------------------------
TREE_BUGS: Tuple[str, ...] = ("off-by-one-prob", "leaf-order")


def _legacy_transcript_distribution(
    protocol: Protocol, inputs: Sequence[Any], bug: Optional[str]
) -> DiscreteDistribution:
    """The historical per-input DFS, replicated independently of
    :func:`repro.core.tree.transcript_distribution`.

    Planted bugs:

    * ``"off-by-one-prob"`` — each child is weighted with its *previous*
      sibling's probability (the first child gets 1.0): a classic
      iteration off-by-one that skews every non-degenerate branch.
    * ``"leaf-order"`` — children are pushed in reversed message order,
      so leaves arrive in *ascending* lexicographic index order instead
      of the descending order the production DFS produces.  Masses are
      equal but the accumulation order (and hence the item order the
      bit-identity contract pins) differs.
    """
    leaves: Dict[Transcript, float] = {}
    stack: List[Tuple[Any, Transcript, float]] = [
        (protocol.initial_state(), Transcript(), 1.0)
    ]
    while stack:
        state, board, prob = stack.pop()
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            leaves[board] = leaves.get(board, 0.0) + prob
            continue
        dist = protocol.message_distribution(
            state, speaker, inputs[speaker], board
        )
        items = list(dist.items())
        if bug == "leaf-order":
            items = list(reversed(items))
        previous_p = 1.0
        for bits, p in items:
            if p <= 0.0:
                continue
            if bits == "":
                raise ProtocolViolation("protocols may not write empty messages")
            branch_p = previous_p if bug == "off-by-one-prob" else p
            previous_p = p
            message = Message(speaker=speaker, bits=bits)
            stack.append(
                (
                    protocol.advance_state(state, message),
                    board.extend(message),
                    prob * branch_p,
                )
            )
    return DiscreteDistribution(leaves, normalize=True)


def legacy_joint_transcript_distribution(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    bug: Optional[str] = None,
) -> JointDistribution:
    """The joint ``(scenario..., transcript)`` law via one DFS per
    distinct input tuple — the pre-batching reference semantics."""
    _check_bug(bug, TREE_BUGS)
    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    cache: Dict[Tuple[Any, ...], DiscreteDistribution] = {}
    probs: Dict[Tuple[Any, ...], float] = {}
    for scenario, p_scenario in scenarios.items():
        key = tuple(inputs_of(scenario))
        dist = cache.get(key)
        if dist is None:
            dist = _legacy_transcript_distribution(protocol, key, bug)
            cache[key] = dist
        for transcript, p_transcript in dist.items():
            outcome = scenario + (transcript,)
            probs[outcome] = probs.get(outcome, 0.0) + p_scenario * p_transcript
    full_names = tuple(names) + ("transcript",) if names is not None else None
    return JointDistribution(probs, names=full_names, normalize=True)


# ----------------------------------------------------------------------
# 1a. Dict-driven shared walk and dict fold (reference for the one
#     tree-walk engine, on every medium).
# ----------------------------------------------------------------------
def shared_walk_reference(
    protocol: Protocol,
    input_keys: Sequence[Tuple[Any, ...]],
    *,
    max_messages: int = DEFAULT_MAX_MESSAGES,
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
# 1b. Lockstep group-by walk (reference for the vectorized kernel engine).
# ----------------------------------------------------------------------
VECTORIZED_BUGS: Tuple[str, ...] = ("partition-order", "axis-swap")


def vectorized_reference(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    bug: Optional[str] = None,
) -> JointDistribution:
    """The joint ``(scenario..., transcript)`` law via an independent
    lockstep group-by walk mirroring the *structure* of
    :func:`repro.perf.kernels.tree_walk_sorted_leaves`: every input
    advances through the tree together, partitioned at each node by
    message distribution, and all leaves land in one flat
    arrival-ordered table that is re-partitioned per input at the end —
    exactly the step the planted bugs corrupt.

    Planted bugs:

    * ``"partition-order"`` — the flat leaf table is sliced into
      per-input runs in raw arrival order, skipping the stable
      re-partition by input (the group-by equivalent of trusting
      ``np.unique``'s sorted return order to be first-seen order).
      Whenever two inputs' leaves interleave, masses are attributed to
      the wrong input.
    * ``"axis-swap"`` — the re-partition sorts with its key columns
      swapped (path-major instead of input-major — the ``np.lexsort``
      argument-order trap), breaking the input-contiguity the slicing
      assumes.
    """
    _check_bug(bug, VECTORIZED_BUGS)
    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    keys: List[Tuple[Any, ...]] = []
    first_seen: Dict[Tuple[Any, ...], int] = {}
    for scenario, _p in scenarios.items():
        key = tuple(inputs_of(scenario))
        if key not in first_seen:
            first_seen[key] = len(keys)
            keys.append(key)

    # (member, path, board, prob) in lockstep arrival order; ``path`` is
    # the per-node message-enumeration index trail, so descending path
    # order is the per-input leaf order of the production engines.
    arrivals: List[Tuple[int, Tuple[int, ...], Transcript, float]] = []

    def walk(members, probs, state, board, path):
        speaker = protocol.next_speaker(state, board)
        if speaker is None:
            for member, p in zip(members, probs):
                arrivals.append((member, path, board, p))
            return
        partitions: Dict[Any, int] = {}
        part_members: List[List[int]] = []
        part_probs: List[List[float]] = []
        part_dists: List[DiscreteDistribution] = []
        for member, p in zip(members, probs):
            dist = protocol.message_distribution(
                state, speaker, keys[member][speaker], board
            )
            signature = tuple(dist.items())
            group = partitions.get(signature)
            if group is None:
                group = len(part_dists)
                partitions[signature] = group
                part_dists.append(dist)
                part_members.append([])
                part_probs.append([])
            part_members[group].append(member)
            part_probs[group].append(p)
        for group, dist in enumerate(part_dists):
            for position, (bits, p_msg) in enumerate(dist.items()):
                if p_msg <= 0.0:
                    continue
                if bits == "":
                    raise ProtocolViolation(
                        "protocols may not write empty messages"
                    )
                message = Message(speaker=speaker, bits=bits)
                walk(
                    part_members[group],
                    [p * p_msg for p in part_probs[group]],
                    protocol.advance_state(state, message),
                    board.extend(message),
                    path + (position,),
                )

    walk(
        list(range(len(keys))),
        [1.0] * len(keys),
        protocol.initial_state(),
        Transcript(),
        (),
    )

    if bug == "partition-order":
        ordered = list(arrivals)
    else:

        def sort_key(row):
            member, path, _board, _p = row
            inverted = tuple(-digit for digit in path)
            if bug == "axis-swap":
                return (inverted, member)
            return (member, inverted)

        ordered = sorted(arrivals, key=sort_key)

    counts = [0] * len(keys)
    for member, _path, _board, _p in arrivals:
        counts[member] += 1
    tables: List[DiscreteDistribution] = []
    offset = 0
    for member in range(len(keys)):
        accumulated: Dict[Transcript, float] = {}
        for _m, _path, board, p in ordered[offset:offset + counts[member]]:
            accumulated[board] = accumulated.get(board, 0.0) + p
        tables.append(DiscreteDistribution(accumulated, normalize=True))
        offset += counts[member]

    probs: Dict[Tuple[Any, ...], float] = {}
    for scenario, p_scenario in scenarios.items():
        table = tables[first_seen[tuple(inputs_of(scenario))]]
        for transcript, p_transcript in table.items():
            outcome = scenario + (transcript,)
            probs[outcome] = (
                probs.get(outcome, 0.0) + p_scenario * p_transcript
            )
    full_names = tuple(names) + ("transcript",) if names is not None else None
    return JointDistribution(probs, names=full_names, normalize=True)


# ----------------------------------------------------------------------
# 1c. Columnar exact joint (reference for the IC column path).
# ----------------------------------------------------------------------
COLUMN_BUGS: Tuple[str, ...] = ("leaf-id-codes", "np-sum-normalizer")


def columnar_information_cost(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    *,
    bug: Optional[str] = None,
) -> Tuple[float, List[int]]:
    """``(I(Π; X), transcript codes)`` re-derived column by column, the
    way :func:`repro.perf.kernels.columnar_joint` computes them: per-input
    laws from the independent per-input DFS, the ``(x,)`` scenario map,
    flat rows scenario-major, the joint normalizer, first-seen integer
    codes per column, and the mutual information folded over the codes
    with each marginal normalized in code order.

    Planted bugs:

    * ``"leaf-id-codes"`` — transcripts are numbered by leaf id (tree
      level order: depth, then bits, as a level-synchronous walk meets
      its leaves) instead of in first-seen row order.  The codes differ
      from the production column, and the transcript marginal is
      normalized in the wrong order.
    * ``"np-sum-normalizer"`` — the joint normalizer is numpy's pairwise
      ``np.sum`` instead of builtin ``sum()`` in row order.
    """
    _check_bug(bug, COLUMN_BUGS)
    laws: Dict[Tuple[Any, ...], DiscreteDistribution] = {}
    rows: List[Tuple[Any, Transcript, float]] = []
    for (x,), p_scenario in input_dist.map(lambda x: (x,)).items():
        key = tuple(x)
        law = laws.get(key)
        if law is None:
            law = laws[key] = _legacy_transcript_distribution(
                protocol, key, None
            )
        for transcript, p_transcript in law.items():
            rows.append((x, transcript, p_scenario * p_transcript))
    raw = [p for _x, _t, p in rows]
    if bug == "np-sum-normalizer":
        from ..perf import kernels

        total = float(kernels.require_numpy().sum(raw))
    else:
        total = sum(raw)
    scale = 1.0 / total
    rows = [(x, t, p * scale) for x, t, p in rows if p > 0.0]
    t_table: Dict[Transcript, int] = {}
    if bug == "leaf-id-codes":
        leaves = sorted(
            {t for _x, t, _p in rows}, key=lambda t: (len(t), t.bit_string())
        )
        t_table = {t: leaf_id for leaf_id, t in enumerate(leaves)}
    else:
        for _x, t, _p in rows:
            t_table.setdefault(t, len(t_table))
    x_table: Dict[Any, int] = {}
    for x, _t, _p in rows:
        x_table.setdefault(x, len(x_table))
    t_codes = [t_table[t] for _x, t, _p in rows]
    x_codes = [x_table[x] for x, _t, _p in rows]
    probs = [p for _x, _t, p in rows]
    information = _mutual_information_over_codes(
        probs, t_codes, len(t_table), x_codes, len(x_table)
    )
    return information, t_codes


def _mutual_information_over_codes(
    probs: List[float],
    a_codes: List[int],
    a_count: int,
    b_codes: List[int],
    b_count: int,
) -> float:
    """The legacy ``mutual_information`` fold, over integer codes: each
    marginal accumulates in row order and is normalized by ``sum()`` in
    code order, pair terms fold in first-seen pair order."""
    pa = [0.0] * a_count
    pb = [0.0] * b_count
    pairs: Dict[Tuple[int, int], float] = {}
    for p, a, b in zip(probs, a_codes, b_codes):
        pa[a] += p
        pb[b] += p
        pairs[(a, b)] = pairs.get((a, b), 0.0) + p
    scale_a = 1.0 / sum(pa)
    scale_b = 1.0 / sum(pb)
    total = 0.0
    for (a, b), p in pairs.items():
        if p > 0.0:
            total += p * math.log2(p / ((pa[a] * scale_a) * (pb[b] * scale_b)))
    return max(total, 0.0)


# ----------------------------------------------------------------------
# 2. Sequential-AND CIC closed form (reference: the naive O(k^2) sum).
# ----------------------------------------------------------------------
CLOSED_FORM_BUGS: Tuple[str, ...] = ("off-by-one-z", "missing-boundary")


def closed_form_cic(k: int, *, bug: Optional[str] = None) -> float:
    """:math:`\\frac1k \\sum_z H(J \\mid Z = z)` summed naively per ``z``
    (independent of the production prefix-sum evaluation).

    Planted bugs: ``"off-by-one-z"`` sums ``z`` over ``range(k - 1)``
    (dropping the highest-entropy conditioning value); and
    ``"missing-boundary"`` forgets the :math:`j = z` boundary term
    :math:`(1 - 1/k)^z` of each conditional entropy.
    """
    _check_bug(bug, CLOSED_FORM_BUGS)
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    q = 1.0 - 1.0 / k
    z_values = range(k - 1) if bug == "off-by-one-z" else range(k)
    total = 0.0
    for z in z_values:
        entropy = 0.0
        for j in range(z):
            p = (q**j) * (1.0 / k)
            if p > 0.0:
                entropy -= p * math.log2(p)
        boundary = q**z
        if boundary > 0.0 and bug != "missing-boundary":
            entropy -= boundary * math.log2(boundary)
        total += entropy
    return total / k


# ----------------------------------------------------------------------
# 3. Round-by-round chain rule (reference for I(Pi; X)).
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
    per_input = {
        tuple(x): _legacy_transcript_distribution(protocol, x, None)
        for x in input_dist.support()
    }
    transcripts: Dict[Transcript, None] = {}
    for dist in per_input.values():
        for transcript in dist.support():
            transcripts.setdefault(transcript, None)

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
# 4. Lemma 3 product decomposition (reference transcript probability).
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
# 5. Literal dart loop (reference for the Lemma 7 sampler).
# ----------------------------------------------------------------------
DART_BUGS: Tuple[str, ...] = ("half-accept",)


def dart_rounds(
    eta: DiscreteDistribution,
    nu: DiscreteDistribution,
    rng: random.Random,
    universe: Sequence[Any],
    rounds: int,
    *,
    bug: Optional[str] = None,
) -> Tuple[List[int], List[int], List[bool]]:
    """Play ``rounds`` literal Lemma 7 rounds and return the per-round
    ``(total_bits, darts_used, receiver_agreed)`` triples, via a minimal
    re-implementation of the dart loop (no tracing, no truncation).

    Planted bug ``"half-accept"`` makes the speaker accept a dart only
    when it lies under *half* of :math:`\\eta`'s curve — the output is
    still :math:`\\eta`-distributed (conditioning preserves proportions)
    but the acceptance probability per dart halves, so the expected dart
    count and the block-index cost both double: exactly the kind of
    silent inefficiency an acceptance-rate oracle must catch.
    """
    _check_bug(bug, DART_BUGS)
    from ..compression.sampling import (  # local import: keep the copy light
        SamplingCost,
        _block_bits,
        _log_ratio_ceil,
        _rank_width,
        _ratio_bits,
    )

    universe = list(universe)
    size = len(universe)
    accept_scale = 0.5 if bug == "half-accept" else 1.0
    bits_per_round: List[int] = []
    darts_per_round: List[int] = []
    agreed: List[bool] = []
    for _ in range(rounds):
        darts: List[Tuple[Any, float]] = []
        accepted_index = None
        while accepted_index is None:
            x = universe[rng.randrange(size)]
            p = rng.random()
            darts.append((x, p))
            if p < accept_scale * eta[x]:
                accepted_index = len(darts)
        x_star = darts[accepted_index - 1][0]
        block = (accepted_index + size - 1) // size
        s = _log_ratio_ceil(eta[x_star], nu[x_star])
        while 2.0**s * nu[x_star] < eta[x_star]:
            s += 1
        scale = 2.0**s
        block_end = block * size
        while len(darts) < block_end:
            x = universe[rng.randrange(size)]
            darts.append((x, rng.random()))
        block_start = (block - 1) * size
        candidates = [
            index
            for index in range(block_start, block_end)
            if darts[index][1] < min(scale * nu[darts[index][0]], 1.0)
        ]
        rank = candidates.index(accepted_index - 1) + 1
        cost = SamplingCost(
            block_bits=_block_bits(block),
            ratio_bits=_ratio_bits(s),
            rank_bits=_rank_width(len(candidates)),
        )
        bits_per_round.append(cost.total_bits)
        darts_per_round.append(accepted_index)
        agreed.append(darts[candidates[rank - 1]][0] == x_star)
    return bits_per_round, darts_per_round, agreed


# ----------------------------------------------------------------------
# 6. Monte-Carlo sample collection (reference for the MC estimator).
# ----------------------------------------------------------------------
ESTIMATOR_BUGS: Tuple[str, ...] = ("blind-estimator",)


def paired_samples(
    protocol: Protocol,
    input_dist: DiscreteDistribution,
    rng: random.Random,
    trials: int,
    *,
    bug: Optional[str] = None,
) -> List[Tuple[Any, str]]:
    """``(inputs, transcript bit-string)`` sample pairs for the plug-in
    MI estimator, collected with :func:`repro.core.runner.run_protocol`.

    Planted bug ``"blind-estimator"`` pairs each recorded input with the
    transcript of an *independently drawn* input — the pairs then carry
    no mutual information at all, which the exact-vs-Monte-Carlo oracle
    must flag whenever the true information cost is positive.
    """
    _check_bug(bug, ESTIMATOR_BUGS)
    from ..core.runner import run_protocol

    pairs: List[Tuple[Any, str]] = []
    for _ in range(trials):
        inputs = input_dist.sample(rng)
        run_inputs = input_dist.sample(rng) if bug == "blind-estimator" else inputs
        outcome = run_protocol(protocol, run_inputs, rng=rng)
        pairs.append((inputs, outcome.transcript.bit_string()))
    return pairs


# ----------------------------------------------------------------------
# 7. Sequential networked-execution reference (for repro.net).
# ----------------------------------------------------------------------
NET_BUGS: Tuple[str, ...] = ("drop-last-frame", "coin-desync")


def networked_reference(
    protocol: Protocol,
    inputs: Sequence[Any],
    seed: Optional[int],
    *,
    bug: Optional[str] = None,
    max_messages: int = 1_000_000,
):
    """A networked execution re-derived from first principles.

    Independently of :mod:`repro.net`'s client/server state machines,
    this simulates k parties the way the networking design doc argues
    they must behave: every party holds its own protocol-state fold,
    its own board mirror, and its own ``random.Random(seed)`` replica of
    the shared coin stream.  Each round, all views must agree on the
    speaker; the speaker samples from *its* replica, the message crosses
    a real ``encode_frame``/``decode_frame`` wire round-trip, and every
    other party advances its replica by the frame's ``coin_draws``.  The
    faithful copy (``bug=None``) is bit-identical to
    :func:`repro.core.runner.run_protocol` with ``random.Random(seed)``
    — that equality is the ``networked-loopback`` oracle's subject.

    Planted bugs:

    * ``"drop-last-frame"`` — the final broadcast frame is lost and
      never retried, so the assembled transcript is one message short:
      the delivery bug retry/SYNC exists to prevent.
    * ``"coin-desync"`` — observers never advance their replicas for
      other speakers' coin draws, so the first party to sample *after*
      observing someone else sample draws from the wrong stream
      position: the bug the ``coin_draws`` frame field exists to
      prevent.
    """
    _check_bug(bug, NET_BUGS)
    from ..core.runner import ProtocolRun
    from ..net.framing import Frame, FrameKind, decode_frame, encode_frame

    k = protocol.num_players
    replicas = [random.Random(seed) for _ in range(k)]
    states = [protocol.initial_state() for _ in range(k)]
    board = Transcript()
    for round_index in range(max_messages + 1):
        views = {protocol.next_speaker(states[i], board) for i in range(k)}
        if len(views) != 1:
            raise ProtocolViolation(
                f"party views disagree on the speaker: {views}"
            )
        (speaker,) = views
        if speaker is None:
            output = protocol.output(states[0], board)
            transcript = board
            if bug == "drop-last-frame" and len(board) > 0:
                transcript = Transcript(board.messages[:-1])
            return ProtocolRun(
                transcript=transcript,
                output=output,
                bits_communicated=transcript.bits_written,
                rounds=len(transcript),
            )
        if round_index == max_messages:
            break
        dist = protocol.message_distribution(
            states[speaker], speaker, inputs[speaker], board
        )
        if len(dist) == 1:
            (bits,) = dist.support()
            draws = 0
        else:
            if seed is None:
                raise ProtocolViolation(
                    "protocol requires private randomness but no seed "
                    "was given to the networked run"
                )
            bits = dist.sample(replicas[speaker])
            draws = 1
        wire = encode_frame(
            Frame(
                kind=FrameKind.BROADCAST,
                party=speaker,
                round_index=round_index,
                coin_draws=draws,
                payload=bits,
            )
        )
        frame, consumed = decode_frame(wire)
        if consumed != len(wire):
            raise ProtocolViolation("frame round-trip left trailing bytes")
        message = Message(speaker=frame.party, bits=frame.payload)
        for i in range(k):
            if i != speaker and bug != "coin-desync":
                for _ in range(frame.coin_draws):
                    replicas[i].random()
            states[i] = protocol.advance_state(states[i], message)
        board = board.extend(message)
    raise ProtocolViolation(
        f"protocol did not halt within {max_messages} messages"
    )


# ----------------------------------------------------------------------
# 7b. Byzantine-tolerant networked reference (for repro.net.byzantine).
# ----------------------------------------------------------------------
BYZANTINE_BUGS: Tuple[str, ...] = (
    "accept-without-quorum",
    "echo-replay-accepted",
)


def byzantine_reference(
    protocol: Protocol,
    inputs: Sequence[Any],
    seed: Optional[int],
    *,
    f: int = 1,
    bug: Optional[str] = None,
    max_messages: int = 1_000_000,
):
    """A Bracha-filtered networked execution re-derived independently.

    Extends the :func:`networked_reference` simulation with the one
    thing the byzantine layer adds: before a round's message reaches the
    board, it must survive ECHO/READY *vote counting* at an honest
    target party while a byzantine voter attacks the count.  The quorums
    are re-derived here from the Bracha '87 statement —
    ``ceil((k + f + 1) / 2)`` matching ECHOs to become ready, ``2f + 1``
    matching READYs to deliver — independently of
    :mod:`repro.net.byzantine`'s arithmetic, and every vote crosses a
    real ``encode_frame``/``decode_frame`` round-trip through the new
    ECHO/READY frame kinds.

    Each round the adversary (the highest-index party, so exactly one
    byzantine voter; ``f >= 1`` covers it) races the honest parties: it
    injects an ECHO and a READY for a *conflicting* value (the true
    payload with its first bit flipped) **first**, each followed by
    enough verbatim replays of itself to reach the respective quorum —
    were replays counted.  A faithful count (``bug=None``) keeps one
    vote per voter, so the evil value is stuck at one ECHO and one READY
    (below every quorum for ``f >= 1``) while the ``k - 1`` honest votes
    deliver the true value — bit-identical to ``run_protocol``.

    Planted bugs:

    * ``"accept-without-quorum"`` — the target delivers the value of the
      first READY it processes instead of waiting for ``2f + 1``: the
      adversary's conflicting READY wins the race and a wrong message
      reaches the board.
    * ``"echo-replay-accepted"`` — vote deduplication is skipped, so the
      adversary's replayed ECHOs fake an echo quorum and its replayed
      READYs fake a delivery quorum for the conflicting value: the bug
      per-voter vote tracking exists to prevent.
    """
    _check_bug(bug, BYZANTINE_BUGS)
    from ..core.runner import ProtocolRun
    from ..net.framing import Frame, FrameKind, decode_frame, encode_frame

    k = protocol.num_players
    if f < 1:
        raise ValueError("the byzantine reference needs f >= 1 (one attacker)")
    echo_quorum = math.ceil((k + f + 1) / 2)
    ready_quorum = 2 * f + 1
    if k - 1 < max(echo_quorum, ready_quorum):
        raise ValueError(
            f"k={k}, f={f}: the {k - 1} honest votes cannot reach the "
            f"quorums (echo {echo_quorum}, ready {ready_quorum}) — the "
            f"scenario needs k > 3f with k >= 4"
        )
    adversary = k - 1

    def vote_wire(kind: FrameKind, voter: int, r: int, bits: str, draws: int) -> Frame:
        wire = encode_frame(
            Frame(
                kind=kind,
                party=voter,
                round_index=r,
                coin_draws=draws,
                payload=bits,
            )
        )
        frame, consumed = decode_frame(wire)
        if consumed != len(wire):
            raise ProtocolViolation("vote frame round-trip left trailing bytes")
        return frame

    def count_round(r: int, bits: str, draws: int) -> Tuple[str, int]:
        """The value the target party delivers for round ``r``."""
        evil = ("1" if bits[0] == "0" else "0") + bits[1:]
        arrivals: List[Frame] = []
        # The adversary races ahead: one conflicting vote of each kind,
        # each replayed verbatim up to the respective quorum.
        for _ in range(echo_quorum):
            arrivals.append(vote_wire(FrameKind.ECHO, adversary, r, evil, draws))
        for _ in range(ready_quorum):
            arrivals.append(vote_wire(FrameKind.READY, adversary, r, evil, draws))
        for voter in range(k - 1):
            arrivals.append(vote_wire(FrameKind.ECHO, voter, r, bits, draws))
        for voter in range(k - 1):
            arrivals.append(vote_wire(FrameKind.READY, voter, r, bits, draws))
        echo_seen: Dict[int, Tuple[str, int]] = {}
        ready_seen: Dict[int, Tuple[str, int]] = {}
        echo_counts: Dict[Tuple[str, int], int] = {}
        ready_counts: Dict[Tuple[str, int], int] = {}
        ready_ok: Dict[Tuple[str, int], bool] = {}
        for frame in arrivals:
            value = (frame.payload, frame.coin_draws)
            if frame.kind == FrameKind.ECHO:
                if bug != "echo-replay-accepted":
                    if frame.party in echo_seen:
                        continue  # one echo vote per voter
                    echo_seen[frame.party] = value
                echo_counts[value] = echo_counts.get(value, 0) + 1
                if echo_counts[value] >= echo_quorum:
                    ready_ok[value] = True
            else:
                if bug != "echo-replay-accepted":
                    if frame.party in ready_seen:
                        continue  # one ready vote per voter
                    ready_seen[frame.party] = value
                ready_counts[value] = ready_counts.get(value, 0) + 1
                if bug == "accept-without-quorum":
                    return value
                if ready_counts[value] >= ready_quorum and ready_ok.get(value):
                    return value
        raise ProtocolViolation(
            f"round {r}: no value reached the ready quorum at the target"
        )

    replicas = [random.Random(seed) for _ in range(k)]
    states = [protocol.initial_state() for _ in range(k)]
    board = Transcript()
    for round_index in range(max_messages + 1):
        views = {protocol.next_speaker(states[i], board) for i in range(k)}
        if len(views) != 1:
            raise ProtocolViolation(
                f"party views disagree on the speaker: {views}"
            )
        (speaker,) = views
        if speaker is None:
            output = protocol.output(states[0], board)
            return ProtocolRun(
                transcript=board,
                output=output,
                bits_communicated=board.bits_written,
                rounds=len(board),
            )
        if round_index == max_messages:
            break
        dist = protocol.message_distribution(
            states[speaker], speaker, inputs[speaker], board
        )
        if len(dist) == 1:
            (bits,) = dist.support()
            draws = 0
        else:
            if seed is None:
                raise ProtocolViolation(
                    "protocol requires private randomness but no seed "
                    "was given to the networked run"
                )
            bits = dist.sample(replicas[speaker])
            draws = 1
        # The speaker's SEND crosses the wire, then the round commits
        # with whatever value survives the target's Bracha count.
        wire = encode_frame(
            Frame(
                kind=FrameKind.APPEND,
                party=speaker,
                round_index=round_index,
                coin_draws=draws,
                payload=bits,
            )
        )
        send, consumed = decode_frame(wire)
        if consumed != len(wire):
            raise ProtocolViolation("frame round-trip left trailing bytes")
        delivered_bits, delivered_draws = count_round(
            round_index, send.payload, send.coin_draws
        )
        message = Message(speaker=send.party, bits=delivered_bits)
        for i in range(k):
            if i != speaker:
                for _ in range(delivered_draws):
                    replicas[i].random()
            states[i] = protocol.advance_state(states[i], message)
        board = board.extend(message)
    raise ProtocolViolation(
        f"protocol did not halt within {max_messages} messages"
    )


# ----------------------------------------------------------------------
# 8. Cached-result serving reference (for repro.store).
# ----------------------------------------------------------------------
STORE_BUGS: Tuple[str, ...] = ("stale-version-tag", "payload-truncation")


def store_serve(
    fresh: bytes,
    stale: bytes,
    key_dict: Dict[str, Any],
    *,
    bug: Optional[str] = None,
) -> bytes:
    """Serve one result through an independently re-derived cell store.

    The scenario mirrors the two ways a result cache can silently serve
    the wrong bytes.  A *stale* payload (a result computed by an older
    kernel) sits in the store under ``key_dict`` with its old
    ``version`` tag; the caller then asks for the same cell under the
    current ``key_dict``.  A faithful store (``bug=None``) addresses
    entries by a digest of *every* key field — version included — so
    the stale entry is unreachable: the lookup misses, the ``fresh``
    payload is computed, persisted through a length- and CRC-sealed
    envelope, and served back byte-identical.

    The store here is deliberately minimal and shares no code with
    :mod:`repro.store`: a dict keyed by a ``hashlib.sha256`` of the
    sorted-JSON key, with a ``b"len:crc\n" + payload`` envelope checked
    with :func:`zlib.crc32` on every read.

    Planted bugs:

    * ``"stale-version-tag"`` — the address digest omits the
      ``version`` field, so entries written by an old kernel collide
      with the current key and the stale payload is served: the bug
      :class:`repro.store.ResultKey`'s code-version tag exists to
      prevent.
    * ``"payload-truncation"`` — the write path drops the final byte of
      the envelope and the read path skips the length/CRC check, so a
      torn write is served as a short payload: the bug the store's
      sealed envelope plus :exc:`repro.store.StoreCorruptedError` exist
      to prevent.
    """
    _check_bug(bug, STORE_BUGS)

    def address(fields: Dict[str, Any]) -> str:
        if bug == "stale-version-tag":
            fields = {k: v for k, v in fields.items() if k != "version"}
        blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def envelope(payload: bytes) -> bytes:
        sealed = (
            f"{len(payload)}:{zlib.crc32(payload) & 0xFFFFFFFF}\n".encode(
                "ascii"
            )
            + payload
        )
        if bug == "payload-truncation":
            sealed = sealed[:-1]
        return sealed

    def open_envelope(blob: bytes) -> bytes:
        header, _, payload = blob.partition(b"\n")
        if bug == "payload-truncation":
            return payload  # unchecked: serves whatever survived
        length, _, crc = header.partition(b":")
        if int(length) != len(payload) or int(crc) != (
            zlib.crc32(payload) & 0xFFFFFFFF
        ):
            raise ValueError("cell store envelope failed verification")
        return payload

    cells: Dict[str, bytes] = {}
    stale_fields = dict(key_dict)
    stale_fields["version"] = str(key_dict.get("version", "")) + "-old"
    cells[address(stale_fields)] = envelope(stale)

    digest = address(key_dict)
    if digest not in cells:  # miss: compute and persist the fresh result
        cells[digest] = envelope(fresh)
    return open_envelope(cells[digest])


# ----------------------------------------------------------------------
# 9. Model-discipline mutants (wrappers around a generated protocol).
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
# 10. Fabric scheduler reference (for repro.fabric).
# ----------------------------------------------------------------------
FABRIC_BUGS: Tuple[str, ...] = ("duplicate-lease", "lost-result-on-steal")


def fabric_schedule_reference(
    num_cells: int,
    num_workers: int,
    events: Sequence[Tuple[str, int, float]],
    *,
    lease_timeout: float,
    max_attempts: int,
    drain_steps: int,
    bug: Optional[str] = None,
) -> Dict[str, Any]:
    """Independently re-derived serial copy of the
    :class:`repro.fabric.scheduler.CellScheduler` policy contract.

    Interprets the same abstract event script the ``fabric-scheduler``
    oracle feeds the production scheduler.  Each event is
    ``(kind, worker, now)`` with kinds ``"ask"`` (the worker requests a
    cell), ``"done"`` / ``"fail"`` (the worker completes / fails its
    smallest-indexed leased cell, if any), ``"tick"`` (expire
    overdue leases) and ``"drop"`` (the worker dies and loses all its
    leases).  After the script both sides run the identical
    deterministic drain rule — round-robin ``tick``/``ask``/``done``
    with the clock advancing one unit per step, for at most
    ``drain_steps`` steps — so a faithful copy finishes every cell and
    the summaries (full dispatch log, completion set, steal / expiry /
    re-queue counters, typed exhaustion) must agree exactly.

    The implementation is deliberately naive — plain lists instead of
    deques, re-sorting instead of incremental bookkeeping — so a bug
    shared with the production scheduler is unlikely.

    Planted bugs:

    * ``"duplicate-lease"`` — when every queue is empty but leases are
      outstanding, the ask path re-dispatches the oldest in-flight cell
      instead of answering "no work": the double-dispatch the lease
      table exists to prevent (production asserts a leased cell is
      never granted again).
    * ``"lost-result-on-steal"`` — a completion for a *stolen* cell
      releases the lease but is never recorded, so the cell silently
      falls out of the sweep: the lost-update bug the
      first-result-wins completion rule exists to prevent.
    """
    from ..net.errors import RetriesExhaustedError

    _check_bug(bug, FABRIC_BUGS)
    queues: List[List[int]] = [
        [cell for cell in range(num_cells) if cell % num_workers == worker]
        for worker in range(num_workers)
    ]
    leases: Dict[int, Tuple[int, float, bool]] = {}
    attempts: Dict[int, int] = {}
    completed: set = set()
    log: List[Tuple[int, int, bool]] = []
    counters = {"steals": 0, "expirations": 0, "requeues": 0}

    def grant(worker: int, cell: int, now: float, stolen: bool) -> None:
        attempts[cell] = attempts.get(cell, 0) + 1
        leases[cell] = (worker, now + lease_timeout, stolen)
        log.append((worker, cell, stolen))

    def ask(worker: int, now: float) -> None:
        if queues[worker]:
            grant(worker, queues[worker].pop(0), now, stolen=False)
            return
        victim, victim_len = None, 0
        for candidate in range(num_workers):
            if len(queues[candidate]) > victim_len:
                victim, victim_len = candidate, len(queues[candidate])
        if victim is None:
            if bug == "duplicate-lease" and leases:
                # Double-dispatch the oldest in-flight cell.
                grant(worker, min(leases), now, stolen=False)
            return
        counters["steals"] += 1
        grant(worker, queues[victim].pop(), now, stolen=True)

    def smallest_leased(worker: int) -> Optional[int]:
        owned = sorted(
            cell
            for cell, (owner, _, _) in leases.items()
            if owner == worker
        )
        return owned[0] if owned else None

    def done(worker: int) -> None:
        cell = smallest_leased(worker)
        if cell is None:
            return
        _, _, stolen = leases.pop(cell)
        if bug == "lost-result-on-steal" and stolen:
            return  # lease released, result dropped on the floor
        if cell in completed:
            return
        home = cell % num_workers
        if cell in queues[home]:
            queues[home].remove(cell)
        completed.add(cell)

    def requeue(cell: int) -> None:
        if attempts.get(cell, 0) >= max_attempts:
            raise RetriesExhaustedError(
                f"reference: cell {cell} exhausted its dispatch budget"
            )
        counters["requeues"] += 1
        queues[cell % num_workers].insert(0, cell)

    def fail(worker: int) -> None:
        cell = smallest_leased(worker)
        if cell is None:
            return
        del leases[cell]
        requeue(cell)

    def tick(now: float) -> None:
        overdue = sorted(
            cell
            for cell, (_, deadline, _) in leases.items()
            if deadline <= now
        )
        for cell in overdue:
            del leases[cell]
            counters["expirations"] += 1
            requeue(cell)

    def drop(worker: int) -> None:
        lost = sorted(
            cell
            for cell, (owner, _, _) in leases.items()
            if owner == worker
        )
        for cell in lost:
            del leases[cell]
            requeue(cell)

    exhausted = False
    now = 0.0
    try:
        for kind, worker, at in events:
            now = at
            if kind == "ask":
                ask(worker, at)
            elif kind == "done":
                done(worker)
            elif kind == "fail":
                fail(worker)
            elif kind == "tick":
                tick(at)
            elif kind == "drop":
                drop(worker)
            else:
                raise ValueError(f"unknown fabric event kind {kind!r}")
        for step in range(drain_steps):
            if len(completed) == num_cells:
                break
            now += 1.0
            worker = step % num_workers
            tick(now)
            ask(worker, now)
            done(worker)
    except RetriesExhaustedError:
        exhausted = True
    return {
        "dispatch_log": tuple(log),
        "completed": tuple(sorted(completed)),
        "steals": counters["steals"],
        "expirations": counters["expirations"],
        "requeues": counters["requeues"],
        "exhausted": exhausted,
    }


# ----------------------------------------------------------------------
# 11. Topology discipline (for repro.topology).
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
    for _ in range(100_000):
        edge = protocol.next_edge(state, transcript)
        if edge is None:
            return {
                "transcript": tuple(transcript_rows),
                "output": protocol.output(state, transcript),
                "bits_communicated": bits_total,
                "bits_by_link": bits_by_link,
            }
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
    raise ProtocolViolation("reference runtime did not halt")


# ----------------------------------------------------------------------
# 12. Reference engines swapped into production (tests and benchmarks).
# ----------------------------------------------------------------------
#: What :func:`reference_engines` swaps in, by the name it counts under.
REFERENCE_ENGINES: Tuple[str, ...] = ("walk", "fold", "recursion", "runner")


def reference_sorted_leaves(
    protocol: Protocol,
    input_keys: Sequence[Tuple[Any, ...]],
    *,
    codes: Any = None,
    span: int = 0,
    max_messages: int,
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
        max_messages=max_messages,
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
