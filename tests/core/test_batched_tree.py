"""Batched shared-prefix enumeration vs the per-input path.

`joint_transcript_distribution` walks the protocol tree once per
scenario distribution (the Lemma 3 rectangle structure).  The contract
is *bit identity*: same outcomes, same float probabilities, and the same
insertion order as the historical per-input implementation.  These tests
pin that contract against a faithful reimplementation of the legacy
path, whose per-input laws come from the independent dict-driven
reference walk of `repro.check.mutations`, across every protocol class
in the suite.
"""

import itertools
import random

import pytest

from repro.check.generator import GeneratedCoordinatorProtocol
from repro.check.mutations import _laws_from_table, shared_walk_reference
from repro.core import joint_transcript_distribution, transcript_distribution
from repro.core.model import BROADCAST
from repro.information import DiscreteDistribution, JointDistribution
from repro.lowerbounds.hard_distribution import and_hard_distribution
from repro.obs import (
    REGISTRY,
    RecordingTracer,
    disable_metrics,
    enable_metrics,
)
from repro.protocols import (
    FullBroadcastAndProtocol,
    NaiveDisjointnessProtocol,
    NoisySequentialAndProtocol,
    OptimalDisjointnessProtocol,
    PromiseUniqueIntersectionProtocol,
    SequentialAndProtocol,
    SequentialCompositionProtocol,
    TrivialDisjointnessProtocol,
    TwoPartyDisjointnessProtocol,
    TwoPartySparseIntersectionProtocol,
    UnionProtocol,
    product_scenarios,
    random_boolean_protocol,
)
from repro.topology import (
    COORDINATOR,
    CoordinatorAndProtocol,
    CoordinatorDisjointnessProtocol,
    RingTokenAndProtocol,
    ring_medium,
)


def legacy_joint(
    protocol, scenarios, inputs_of=None, *, names=None, medium=BROADCAST
):
    """The pre-batching implementation of joint_transcript_distribution:
    one walk per distinct input tuple, scenario-major accumulation.  Kept
    verbatim (minus tracing) as the bit-identity reference, with each
    input's law from the reference walk over that input alone."""
    if inputs_of is None:
        inputs_of = lambda scenario: scenario[0]  # noqa: E731
    probs = {}
    cache = {}
    for scenario, p_scenario in scenarios.items():
        if not isinstance(scenario, tuple):
            raise TypeError(
                f"scenario outcomes must be tuples, got {scenario!r}"
            )
        key = tuple(inputs_of(scenario))
        transcripts = cache.get(key)
        if transcripts is None:
            table, *_stats = shared_walk_reference(
                protocol, [key], medium=medium
            )
            (transcripts,) = _laws_from_table(table)
            cache[key] = transcripts
        for transcript, p_transcript in transcripts.items():
            outcome = scenario + (transcript,)
            probs[outcome] = probs.get(outcome, 0.0) + p_scenario * p_transcript
    full_names = None
    if names is not None:
        full_names = tuple(names) + ("transcript",)
    return JointDistribution(probs, names=full_names, normalize=True)


def assert_bit_identical(actual, expected):
    """Outcome order, outcome values, and probabilities all exactly equal."""
    assert actual.names == expected.names
    assert list(actual.items()) == list(expected.items())


def valid_input_tuples(protocol, candidates):
    kept = []
    for candidate in candidates:
        try:
            protocol.validate_inputs(candidate)
        except Exception:
            continue
        kept.append(candidate)
    return kept


def all_boolean_inputs(k):
    return list(itertools.product((0, 1), repeat=k))


def scenario_distribution(input_tuples, *, weights=None):
    """Scenarios of the plain ``(inputs,)`` shape."""
    if weights is None:
        return DiscreteDistribution.uniform([(t,) for t in input_tuples])
    return DiscreteDistribution(
        {(t,): w for t, w in zip(input_tuples, weights)}, normalize=True
    )


def protocol_cases():
    """(label, protocol, scenario distribution) covering every protocol
    class in the suite that the tree analyzer accepts."""
    rng = random.Random(11)
    mask_pairs = list(itertools.product(range(4), repeat=2))
    cases = [
        (
            "sequential_and",
            SequentialAndProtocol(3),
            scenario_distribution(all_boolean_inputs(3)),
        ),
        (
            "full_broadcast_and",
            FullBroadcastAndProtocol(3),
            scenario_distribution(
                all_boolean_inputs(3),
                weights=[i + 1.0 for i in range(8)],
            ),
        ),
        (
            "noisy_sequential_and",
            NoisySequentialAndProtocol(2, 0.25),
            scenario_distribution(all_boolean_inputs(2)),
        ),
        (
            "trivial_disjointness",
            TrivialDisjointnessProtocol(2, 2),
            scenario_distribution(mask_pairs),
        ),
        (
            "naive_disjointness",
            NaiveDisjointnessProtocol(2, 2),
            scenario_distribution(mask_pairs),
        ),
        (
            "optimal_disjointness",
            OptimalDisjointnessProtocol(4, 2),
            scenario_distribution(
                list(itertools.product(range(16), repeat=2))[:24]
            ),
        ),
        (
            "two_party_disjointness",
            TwoPartyDisjointnessProtocol(2),
            scenario_distribution(mask_pairs),
        ),
        (
            "union",
            UnionProtocol(2, 2),
            scenario_distribution(mask_pairs),
        ),
        (
            "random_boolean",
            random_boolean_protocol(3, rng=random.Random(5)),
            scenario_distribution(all_boolean_inputs(3)),
        ),
        (
            "composition",
            SequentialCompositionProtocol(SequentialAndProtocol(2), 2),
            product_scenarios(
                [
                    DiscreteDistribution.uniform(all_boolean_inputs(2)),
                    DiscreteDistribution.uniform(all_boolean_inputs(2)),
                ]
            ).map(lambda inputs: (inputs,)),
        ),
    ]
    sparse = TwoPartySparseIntersectionProtocol(3, 1)
    sparse_inputs = valid_input_tuples(
        sparse, list(itertools.product(range(8), repeat=2))
    )
    cases.append(
        ("two_party_sparse", sparse, scenario_distribution(sparse_inputs[:20]))
    )
    promise = PromiseUniqueIntersectionProtocol(3, 2)
    promise_inputs = valid_input_tuples(
        promise, list(itertools.product(range(8), repeat=2))
    )
    if promise_inputs:
        cases.append(
            (
                "promise_unique_intersection",
                promise,
                scenario_distribution(promise_inputs),
            )
        )
    _ = rng
    return cases


def medium_cases():
    """(label, protocol, scenario distribution, medium) for the protocols
    of the coordinator and ring media — input-less hub nodes included."""
    generated = GeneratedCoordinatorProtocol(7, 3)
    return [
        (
            "coordinator_disjointness",
            CoordinatorDisjointnessProtocol(2, 3),
            scenario_distribution(
                list(itertools.product(range(4), repeat=3))
            ),
            COORDINATOR,
        ),
        (
            "coordinator_and",
            CoordinatorAndProtocol(4),
            scenario_distribution(all_boolean_inputs(4)),
            COORDINATOR,
        ),
        (
            "ring_token_and",
            RingTokenAndProtocol(4),
            scenario_distribution(all_boolean_inputs(4)),
            ring_medium(4),
        ),
        (
            "generated_coordinator",
            generated,
            scenario_distribution(generated.input_tuples()),
            COORDINATOR,
        ),
    ]


CASES = protocol_cases()
ALL_CASES = [case + (BROADCAST,) for case in CASES] + medium_cases()
CASE_IDS = [case[0] for case in ALL_CASES]


class TestBatchedEqualsPerInput:
    @pytest.mark.parametrize("case", ALL_CASES, ids=CASE_IDS)
    def test_bit_identical_across_protocol_classes(self, case):
        _, protocol, scenarios, medium = case
        expected = legacy_joint(protocol, scenarios, medium=medium)
        assert_bit_identical(
            joint_transcript_distribution(
                protocol, scenarios, medium=medium
            ),
            expected,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_protocols_property(self, seed):
        protocol = random_boolean_protocol(3, rng=random.Random(seed))
        weights = [
            random.Random(seed * 31 + i).random() + 0.05 for i in range(8)
        ]
        scenarios = scenario_distribution(
            all_boolean_inputs(3), weights=weights
        )
        assert_bit_identical(
            joint_transcript_distribution(protocol, scenarios),
            legacy_joint(protocol, scenarios),
        )

    def test_aux_scenarios_and_names(self):
        # Definition 6 shape: scenarios are (x, d) with d an auxiliary
        # component; distinct scenarios share input tuples.
        protocol = NoisySequentialAndProtocol(2, 0.125)
        scenarios = DiscreteDistribution(
            {
                ((x1, x2), d): 1.0 + x1 + 2 * x2 + 3 * d
                for x1 in (0, 1)
                for x2 in (0, 1)
                for d in (0, 1)
            },
            normalize=True,
        )
        expected = legacy_joint(
            protocol,
            scenarios,
            inputs_of=lambda s: s[0],
            names=("inputs", "aux"),
        )
        actual = joint_transcript_distribution(
            protocol,
            scenarios,
            inputs_of=lambda s: s[0],
            names=("inputs", "aux"),
        )
        assert actual.names == ("inputs", "aux", "transcript")
        assert_bit_identical(actual, expected)

    def test_non_tuple_scenarios_rejected(self):
        protocol = SequentialAndProtocol(2)
        bad = DiscreteDistribution.uniform([0, 1])
        with pytest.raises(TypeError):
            joint_transcript_distribution(protocol, bad)

    def test_traced_equals_untraced(self):
        tracer = RecordingTracer()
        for _, protocol, scenarios in CASES[:4]:
            untraced = joint_transcript_distribution(protocol, scenarios)
            traced = joint_transcript_distribution(
                protocol, scenarios, tracer=tracer
            )
            assert_bit_identical(traced, untraced)
        assert any(e.name == "joint_enumerated" for e in tracer.events)


class TestNodeSharing:
    def test_fewer_nodes_on_and_hard_distribution(self):
        """Acceptance criterion: on the AND_k hard-distribution workload
        the batched walk expands strictly fewer tree nodes than the
        per-distinct-input path (tree_nodes_expanded counter)."""
        k = 6
        protocol = SequentialAndProtocol(k)
        # Scenarios are (x, z): distinct z share the same input tuple x,
        # exactly the Definition 6 workload the analyzer runs.
        scenarios = and_hard_distribution(k)

        enable_metrics(reset=True)
        try:
            joint_transcript_distribution(protocol, scenarios)
            batched_nodes = REGISTRY.counter("tree_nodes_expanded").value(
                protocol="SequentialAndProtocol"
            )
            enable_metrics(reset=True)
            for inputs in dict.fromkeys(x for x, _z in scenarios.support()):
                transcript_distribution(protocol, inputs)
            per_input_nodes = REGISTRY.counter("tree_nodes_expanded").value(
                protocol="SequentialAndProtocol"
            )
        finally:
            disable_metrics()

        assert batched_nodes > 0
        assert batched_nodes < per_input_nodes

    def test_batched_node_count_is_union_tree_size(self):
        # All-inputs population of AND_k: the union tree is the full
        # binary message tree the protocol can produce, counted once.
        protocol = SequentialAndProtocol(3)
        scenarios = scenario_distribution(all_boolean_inputs(3))
        enable_metrics(reset=True)
        try:
            joint_transcript_distribution(protocol, scenarios)
            batched_nodes = REGISTRY.counter("tree_nodes_expanded").value(
                protocol="SequentialAndProtocol"
            )
            enable_metrics(reset=True)
            for inputs in all_boolean_inputs(3):
                transcript_distribution(protocol, inputs)
            per_input_nodes = REGISTRY.counter("tree_nodes_expanded").value(
                protocol="SequentialAndProtocol"
            )
        finally:
            disable_metrics()
        assert batched_nodes < per_input_nodes
