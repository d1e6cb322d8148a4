"""Exact enumeration of a protocol's transcript distribution.

The paper's information-cost quantities are functionals of the joint law
of (inputs, auxiliary variable, transcript).  For protocols whose message
supports are finite and whose input distributions have enumerable support,
this joint law can be computed *exactly* by walking the protocol tree:
from each board state, branch on every message in the speaking player's
message distribution, multiplying probabilities along the way.

This exactness is what lets the test suite assert the paper's lemmas as
equalities/inequalities on concrete numbers rather than Monte-Carlo
estimates:

* Lemma 3's product decomposition ``Pr[Π(X) = ℓ] = Π_i q_{i, X_i}^ℓ``,
* Lemma 4's posterior formula,
* Theorem 1's Ω(log k) conditional information cost,
* the chain-rule identity of Section 6.

Entry points
------------
* :func:`transcript_distribution` — law of the transcript for one fixed
  input tuple: the shared walk below over a population of one.
* :func:`transcript_distributions` — the same law for many input tuples
  at once, from one shared walk; what the per-input error and
  communication functionals fold over.
* :func:`joint_transcript_distribution` — joint law of (scenario
  components..., transcript) for a distribution over scenarios, where a
  scenario is any tuple whose components the caller wants to keep (inputs,
  auxiliary variables, ...), computed with a *single* walk of the
  protocol tree shared across every scenario.  Lemma 3 says a
  transcript's probability factors into per-player terms that depend
  only on that player's own input, i.e. transcripts induce
  combinatorial rectangles over the input space.  The shared walk
  exploits exactly this structure: at every board prefix it carries the
  whole population of distinct input tuples that reach it and
  partitions them by the *speaker's* input alone, so inputs that agree
  on the speaking player's coordinate share one ``message_distribution``
  call and one subtree.  Distinct input tuples whose behaviors coincide
  along a prefix therefore cost one node expansion instead of many — the
  ``tree_nodes_expanded`` counter drops accordingly.
* :func:`population_joint` — the joint law of an *encoded* scenario
  population (:class:`repro.perf.kernels.InputColumns`: masses, member
  codes into the distinct input tuples, coordinate codes), the entry
  every joint takes.  An input law carries its encoding from
  construction (or from first use), so the analyzer's entry points
  hand it over without a pass over scenario tuples.

Bit-identity contract
---------------------
The shared walk reproduces the per-input DFS *bit for bit*: per
distinct input tuple it performs the same multiplications in the same
root-to-leaf order, reconstructs the leaf insertion order the per-input
DFS would have produced (children are explored in reversed
``message_distribution`` order, so leaves arrive in descending
lexicographic child-index order), and accumulates scenario mass in the
same scenario/transcript iteration order.  The regression suite asserts
exact float equality against the independent references of
:mod:`repro.check.mutations` across every shipped protocol class.

The joint law never passes through transcript-keyed dicts: the walk's
integer leaf ids and float64 leaf probabilities become the joint's
columns (:func:`repro.perf.kernels.columnar_joint`), with each of the
dict fold's sums and normalizers replayed on arrays in the same order,
and the information functionals read those columns directly.  The
dict-driven walk and fold this replaced are kept as references in
:mod:`repro.check.mutations`.
"""

from __future__ import annotations

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

from ..information.distribution import DiscreteDistribution, JointDistribution
from ..obs.metrics import REGISTRY
from ..obs.trace import get_tracer
from .model import BROADCAST, Medium, Protocol, Transcript

__all__ = [
    "transcript_distribution",
    "transcript_distributions",
    "joint_transcript_distribution",
    "population_joint",
]

def transcript_distribution(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    medium: Medium = BROADCAST,
) -> DiscreteDistribution:
    """The exact law of the transcript ``Π(inputs)`` over private coins.

    For a deterministic protocol this is a point mass.  The law comes
    from the shared walk over a population of one input, which finishes
    a one-input tree by a per-input DFS, so its cost is the number of
    reachable (transcript prefix) nodes under this input.  An input
    with an unhashable coordinate raises ``TypeError``, as every joint
    does.

    ``medium`` is the communication medium (default: the blackboard);
    every scheduled edge is checked with :meth:`~repro.core.model.
    Medium.check_edge`, so an enumeration doubles as a structural audit
    of the transcripts it visits.  A path longer than the protocol's
    :attr:`~repro.core.model.Protocol.max_messages` raises
    :class:`~repro.core.model.ProtocolViolation`, in every entry point.

    Observability: each call emits one ``tree_enumerated`` trace event
    summarizing the walk (nodes expanded, leaves, max depth) and feeds
    the ``tree_nodes_expanded`` / ``tree_leaves`` counters plus the
    ``tree_depth`` / ``tree_support`` histograms.  Per-node events are
    deliberately not emitted — tree sizes are exponential and a trace
    must stay proportional to the number of *calls*, not nodes.
    """
    leaves, nodes_expanded, leaf_count, max_depth = _shared_walk(
        protocol,
        [tuple(inputs)],
        None,
        0,
        medium=medium,
    )
    (law,) = _laws_from_rows(leaves)
    tracer = get_tracer()
    if tracer:
        tracer.event(
            "tree_enumerated",
            protocol=type(protocol).__name__,
            nodes=nodes_expanded,
            leaves=leaf_count,
            max_depth=max_depth,
        )
    return law


def joint_transcript_distribution(
    protocol: Protocol,
    scenarios: DiscreteDistribution,
    inputs_of: Optional[Callable[[Any], Sequence[Any]]] = None,
    *,
    names: Optional[Sequence[str]] = None,
    medium: Medium = BROADCAST,
) -> JointDistribution:
    """The exact joint law of ``(scenario components..., transcript)``,
    computed with one shared walk of the protocol tree.

    Semantics and result are bit-identical to enumerating each distinct
    input tuple separately with :func:`transcript_distribution`; see the
    module docstring for why the shared walk is faithful to Lemma 3's
    rectangle structure.

    The scenario tuples are encoded once
    (:func:`repro.perf.kernels.scenario_columns`) into the population
    the walk and the joint read (:class:`~repro.perf.kernels.
    InputColumns`): the
    scenario masses as float64, each scenario's walk input as a
    first-seen member code over the distinct input tuples, those tuples'
    coordinate codes, and first-seen codes for every other component.
    :func:`population_joint` takes it from there; laws that carry their
    encoding skip this step (see :mod:`repro.core.analysis`).

    Parameters
    ----------
    protocol:
        The protocol to analyze.
    scenarios:
        A distribution whose outcomes are tuples; each tuple is one
        "scenario" (e.g. ``(x,)`` for plain inputs or ``(x, d)`` for the
        conditional-information-cost setting of Definition 6, where ``x``
        is itself the ``k``-tuple of player inputs).
    inputs_of:
        Extracts the player-input tuple from a scenario.  Defaults to the
        scenario's first component.
    names:
        Optional component names for the result; the transcript component
        is appended automatically as ``"transcript"``.
    medium:
        The communication medium (default: the blackboard).  When the
        scheduled speaker is an input-less auxiliary node (a
        coordinator, a relay) every input tuple shares its message law,
        so the population rides one branch unsplit — Lemma 3's rectangle
        reasoning with that node's "coordinate" trivial.

    Returns
    -------
    JointDistribution
        Over tuples ``scenario + (transcript,)``.  It is built from the
        walk's leaf ids as columns
        (:func:`repro.perf.kernels.columnar_joint`) and carries that
        encoding, which the information functionals read directly; its
        outcome dict is built only if something iterates the joint.
    """
    from ..perf import kernels

    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    population = kernels.scenario_columns(scenarios, inputs_of)
    return population_joint(
        protocol,
        population,
        names=names,
        medium=medium,
    )


def population_joint(
    protocol: Protocol,
    population: Any,
    *,
    names: Optional[Sequence[str]] = None,
    medium: Medium = BROADCAST,
) -> JointDistribution:
    """The exact joint law of an encoded scenario population
    (:class:`repro.perf.kernels.InputColumns`) and the transcript, from
    one shared walk over its distinct inputs.

    The entry every joint takes: :func:`joint_transcript_distribution`
    encodes its scenario tuples, and
    :func:`repro.core.analysis.transcript_joint` /
    :func:`~repro.core.analysis.conditional_transcript_joint` hand over
    the encoding their input law carries.  The joint stays columns
    (:func:`repro.perf.kernels.columnar_joint`): the functionals read
    them, and the outcome dict is only built if something iterates the
    joint.
    """
    from ..perf import kernels

    inputs = population.inputs
    leaves, nodes_expanded, _leaves, max_depth = _shared_walk(
        protocol,
        inputs,
        population.codes,
        population.span,
        medium=medium,
    )
    full_names = None
    if names is not None:
        full_names = tuple(names) + ("transcript",)
    columns, outcomes = kernels.columnar_joint(leaves, population)
    arity = len(population.scenario or [None]) + 1
    joint = JointDistribution._from_columns(columns, arity, full_names)
    tracer = get_tracer()
    if tracer:
        tracer.event(
            "joint_enumerated",
            protocol=type(protocol).__name__,
            scenarios=len(population.outcomes),
            distinct_inputs=len(inputs),
            outcomes=outcomes,
            nodes=nodes_expanded,
            max_depth=max_depth,
            batched=True,
        )
    return joint


def transcript_distributions(
    protocol: Protocol,
    input_tuples: Iterable[Sequence[Any]],
    *,
    medium: Medium = BROADCAST,
) -> Dict[Tuple[Any, ...], DiscreteDistribution]:
    """Every distinct input tuple's transcript law, from one shared walk.

    Maps ``tuple(inputs)`` to exactly what
    ``transcript_distribution(protocol, inputs, medium=medium)`` returns
    -- the same leaves in the same item order with the same floats --
    in first-seen input order.  The walk is the one behind
    :func:`joint_transcript_distribution`, so inputs that agree
    on the speaking player's coordinate share every node up to where
    they part; this is what the per-input functionals of
    :mod:`repro.core.analysis` fold over.

    Observability: one ``tree_enumerated`` trace event for the whole
    walk (with the number of distinct ``inputs``) and the usual
    ``tree_*`` counters.
    """
    input_keys = list(dict.fromkeys(tuple(inputs) for inputs in input_tuples))
    leaves, nodes_expanded, union_leaf_count, max_depth = _shared_walk(
        protocol,
        input_keys,
        None,
        0,
        medium=medium,
    )
    laws: Dict[Tuple[Any, ...], DiscreteDistribution] = {}
    if leaves is not None:
        laws = dict(zip(input_keys, _laws_from_rows(leaves)))
    tracer = get_tracer()
    if tracer:
        tracer.event(
            "tree_enumerated",
            protocol=type(protocol).__name__,
            inputs=len(laws),
            nodes=nodes_expanded,
            leaves=union_leaf_count,
            max_depth=max_depth,
        )
    return laws


def _shared_walk(
    protocol: Protocol,
    input_keys: Sequence[Tuple[Any, ...]],
    codes: Any,
    span: int,
    *,
    medium: Medium,
) -> Tuple[Any, int, int, int]:
    """The shared walk behind every entry point above, over distinct
    input tuples and their coordinate codes (``None``: the walk encodes
    them).

    Returns ``(leaves, nodes_expanded, union_leaves, max_depth)`` and
    feeds the ``tree_*`` counters.  ``leaves`` is the engine's
    :class:`repro.perf.kernels.SortedLeaves` (``None`` for no inputs),
    each input's rows in its per-input DFS leaf order.

    One DFS over the *union* protocol tree: each node carries the
    population of input tuples that reach its board as index /
    probability / index-path arrays, and partitioning is a group-by
    (:func:`repro.perf.kernels.tree_walk_sorted_leaves`).  The index path
    replays, per input, the exact leaf order the per-input DFS produces
    (children are pushed in message order and popped LIFO, so leaves
    arrive in descending lexicographic index order), which pins the
    normalization sum bit-for-bit.  Tuples that cannot be coded
    (an unhashable coordinate) raise ``TypeError``; a tuple of the wrong
    width fails ``validate_inputs`` with ``ProtocolViolation`` first.
    """
    from ..perf import kernels

    reg = REGISTRY if REGISTRY.enabled else None
    if not input_keys:
        return None, 0, 0, 0
    if codes is not None:
        # Every row of the code matrix has the same width, so one
        # tuple's check is every tuple's.
        protocol.validate_inputs(input_keys[0])
    else:
        for key in input_keys:
            protocol.validate_inputs(key)
    leaves, nodes_expanded, union_leaf_count, max_depth = (
        kernels.tree_walk_sorted_leaves(
            protocol,
            input_keys,
            codes=codes,
            span=span,
            medium=medium,
        )
    )
    if reg is not None:
        name = type(protocol).__name__
        reg.counter("tree_nodes_expanded").inc(nodes_expanded, protocol=name)
        reg.counter("tree_leaves").inc(union_leaf_count, protocol=name)
        reg.histogram("tree_depth").observe(max_depth, protocol=name)
        reg.histogram("tree_support").observe(union_leaf_count, protocol=name)
    return leaves, nodes_expanded, union_leaf_count, max_depth


def _laws_from_rows(leaves: Any) -> List[DiscreteDistribution]:
    """Each input's transcript law, in input order, from its ordered
    leaf rows (descending lexicographic index path — the order the walk
    delivers), accumulated and normalized exactly as the per-input path
    does."""
    counts, leaf_boards, leaf_probs = leaves.rows()
    laws: List[DiscreteDistribution] = []
    pos = 0
    for count in counts:
        if count == 1 and leaf_probs[pos] > 0.0:
            # A single positive leaf: exactly what the normalizing
            # constructor stores (its total is the one mass itself).
            p_leaf = leaf_probs[pos]
            laws.append(
                DiscreteDistribution._from_normalized(
                    {leaf_boards[pos]: p_leaf * (1.0 / p_leaf)}
                )
            )
            pos += 1
            continue
        leaves: Dict[Transcript, float] = {}
        for offset in range(pos, pos + count):
            leaf_board = leaf_boards[offset]
            leaves[leaf_board] = (
                leaves.get(leaf_board, 0.0) + leaf_probs[offset]
            )
        pos += count
        laws.append(DiscreteDistribution(leaves, normalize=True))
    return laws
