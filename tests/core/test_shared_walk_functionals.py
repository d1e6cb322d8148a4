"""The per-input functionals on one shared walk vs the per-input loops.

`distributional_error`, `worst_case_error`, `expected_communication`
and `worst_case_communication` fold over the transcript laws of
`transcript_distributions` (one shared walk) instead of calling
`transcript_distribution` once per input.  The contract is exact
equality with the per-input loops they replaced, which are kept below
(plus the `medium=` pass-through) as the reference, each input's law
from the independent dict-driven reference walk of
`repro.check.mutations` over that input alone; on the engine walk and
with that reference walk swapped in, on deterministic, randomized and
medium protocols.
"""

import itertools
import random

import pytest

from repro.check.generator import GeneratedCoordinatorProtocol
from repro.check.mutations import _laws_from_table, shared_walk_reference
from repro.core import (
    Task,
    and_task,
    disjointness_task,
    distributional_error,
    expected_communication,
    transcript_distributions,
    worst_case_communication,
    worst_case_error,
)
from repro.core.analysis import _output_for
from repro.core.model import BROADCAST, ProtocolViolation
from repro.core.tree import population_joint
from repro.information import DiscreteDistribution
from repro.lowerbounds.fooling import TruncatedAndProtocol, lemma6_distribution
from repro.obs import RecordingTracer, collecting, using_tracer
from repro.protocols import (
    FullBroadcastAndProtocol,
    NaiveDisjointnessProtocol,
    NoisySequentialAndProtocol,
    OptimalDisjointnessProtocol,
    SequentialAndProtocol,
    random_boolean_protocol,
)
from repro.topology import (
    COORDINATOR,
    CoordinatorAndProtocol,
    CoordinatorDisjointnessProtocol,
    RingTokenAndProtocol,
    TopologyViolation,
    ring_medium,
)


# ----------------------------------------------------------------------
# The per-input loops, verbatim apart from ``medium=`` and the law.
# ----------------------------------------------------------------------
def reference_law(protocol, inputs, medium):
    """One input's transcript law from the reference walk."""
    table, *_stats = shared_walk_reference(
        protocol, [tuple(inputs)], medium=medium
    )
    (law,) = _laws_from_table(table)
    return law


def loop_distributional_error(protocol, input_dist, evaluate, medium):
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        correct = evaluate(inputs)
        transcripts = reference_law(protocol, inputs, medium)
        state_cache = {}
        for transcript, p_transcript in transcripts.items():
            output = _output_for(protocol, transcript, state_cache)
            if output != correct:
                total += p_inputs * p_transcript
    return total


def loop_worst_case_error(protocol, task, inputs_iter, medium):
    if inputs_iter is None:
        inputs_iter = task.domain()
    worst = 0.0
    for inputs in inputs_iter:
        correct = task.evaluate(inputs)
        transcripts = reference_law(protocol, inputs, medium)
        state_cache = {}
        error = sum(
            p
            for transcript, p in transcripts.items()
            if _output_for(protocol, transcript, state_cache) != correct
        )
        worst = max(worst, error)
    return worst


def loop_expected_communication(protocol, input_dist, medium):
    total = 0.0
    for inputs, p_inputs in input_dist.items():
        transcripts = reference_law(protocol, inputs, medium)
        total += p_inputs * sum(
            p * transcript.bits_written for transcript, p in transcripts.items()
        )
    return total


def loop_worst_case_communication(protocol, inputs_iter, medium):
    worst = -1
    for inputs in inputs_iter:
        transcripts = reference_law(protocol, inputs, medium)
        for transcript in transcripts.support():
            worst = max(worst, transcript.bits_written)
    if worst < 0:
        raise ValueError("no inputs supplied")
    return worst


# ----------------------------------------------------------------------
# Cases: (label, protocol, weighted input distribution, task, medium).
# ----------------------------------------------------------------------
def _bits(k):
    return list(itertools.product((0, 1), repeat=k))


def _weighted(inputs):
    """A non-uniform distribution, so the fold's weights matter."""
    return DiscreteDistribution(
        {x: 1.0 + 0.37 * i for i, x in enumerate(inputs)}, normalize=True
    )


def _cases():
    masks = list(itertools.product(range(4), repeat=2))
    masks3 = list(itertools.product(range(4), repeat=3))
    generated = GeneratedCoordinatorProtocol(7, 3)
    return [
        ("sequential_and", SequentialAndProtocol(4), _weighted(_bits(4)),
         and_task(4), BROADCAST),
        ("full_broadcast_and", FullBroadcastAndProtocol(3),
         _weighted(_bits(3)), and_task(3), BROADCAST),
        ("truncated_and", TruncatedAndProtocol(6, 3),
         lemma6_distribution(6, 0.2), and_task(6), BROADCAST),
        ("noisy_sequential_and", NoisySequentialAndProtocol(3, 0.25),
         _weighted(_bits(3)), and_task(3), BROADCAST),
        ("random_boolean", random_boolean_protocol(3, rng=random.Random(5)),
         _weighted(_bits(3)), and_task(3), BROADCAST),
        ("naive_disjointness", NaiveDisjointnessProtocol(2, 2),
         _weighted(masks), disjointness_task(2, 2), BROADCAST),
        ("optimal_disjointness", OptimalDisjointnessProtocol(3, 2),
         _weighted(list(itertools.product(range(8), repeat=2))),
         disjointness_task(3, 2), BROADCAST),
        ("coordinator_and", CoordinatorAndProtocol(4), _weighted(_bits(4)),
         and_task(4), COORDINATOR),
        ("coordinator_disjointness", CoordinatorDisjointnessProtocol(2, 3),
         _weighted(masks3), disjointness_task(2, 3), COORDINATOR),
        ("ring_token_and", RingTokenAndProtocol(4), _weighted(_bits(4)),
         and_task(4), ring_medium(4)),
        ("generated_coordinator", generated,
         _weighted(generated.input_tuples()), and_task(3), COORDINATOR),
    ]


CASES = _cases()
IDS = [case[0] for case in CASES]
#: ``legacy`` swaps the reference engines in (``under`` in conftest.py).
KERNELS = ["legacy", "vectorized"]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestFunctionalsEqualPerInputLoops:
    def test_transcript_laws(self, case, kernel, under):
        _, protocol, dist, _, medium = case
        laws = under(
            kernel,
            lambda: transcript_distributions(
                protocol, dist.support(), medium=medium
            ),
        )
        assert list(laws) == [tuple(x) for x in dist.support()]
        for inputs in dist.support():
            expected = reference_law(protocol, inputs, medium)
            assert list(laws[tuple(inputs)].items()) == list(expected.items())

    def test_distributional_error(self, case, kernel, under):
        _, protocol, dist, task, medium = case
        actual = under(
            kernel,
            lambda: distributional_error(
                protocol, dist, task.evaluate, medium=medium
            ),
        )
        assert actual == loop_distributional_error(
            protocol, dist, task.evaluate, medium
        )

    def test_worst_case_error(self, case, kernel, under):
        _, protocol, dist, task, medium = case
        inputs = dist.support()
        actual = under(
            kernel,
            lambda: worst_case_error(protocol, task, iter(inputs), medium=medium),
        )
        assert actual == loop_worst_case_error(protocol, task, inputs, medium)

    def test_expected_communication(self, case, kernel, under):
        _, protocol, dist, _, medium = case
        actual = under(
            kernel,
            lambda: expected_communication(protocol, dist, medium=medium),
        )
        assert actual == loop_expected_communication(protocol, dist, medium)

    def test_worst_case_communication(self, case, kernel, under):
        _, protocol, dist, _, medium = case
        inputs = dist.support()
        actual = under(
            kernel,
            lambda: worst_case_communication(
                protocol, iter(inputs), medium=medium
            ),
        )
        assert actual == loop_worst_case_communication(protocol, inputs, medium)


class TestSharedWalkEdges:
    def test_medium_is_honoured(self):
        """A coordinator protocol walked on the blackboard fails its
        structural audit; with its own medium every functional runs."""
        protocol = CoordinatorAndProtocol(4)
        dist = _weighted(_bits(4))
        with pytest.raises(TopologyViolation):
            distributional_error(protocol, dist, and_task(4).evaluate)
        assert distributional_error(
            protocol, dist, and_task(4).evaluate, medium=COORDINATOR
        ) == 0.0
        assert worst_case_error(
            protocol, and_task(4), medium=COORDINATOR
        ) == 0.0
        assert worst_case_communication(
            protocol, _bits(4), medium=COORDINATOR
        ) == 4

    def test_duplicate_and_list_inputs(self):
        """Duplicates are walked once but still counted in the max, and
        list-valued input tuples key by their tuple."""
        protocol = NoisySequentialAndProtocol(2, 0.25)
        inputs = [[1, 1], (0, 1), [1, 1], (1, 0)]
        task = and_task(2)
        assert worst_case_error(protocol, task, inputs) == (
            loop_worst_case_error(protocol, task, inputs, BROADCAST)
        )
        laws = transcript_distributions(protocol, inputs)
        assert list(laws) == [(1, 1), (0, 1), (1, 0)]

    def test_no_inputs(self):
        with pytest.raises(ValueError, match="no inputs supplied"):
            worst_case_communication(SequentialAndProtocol(2), [])
        assert transcript_distributions(SequentialAndProtocol(2), []) == {}
        empty = Task("empty", 2, lambda x: 0, lambda: iter(()))
        assert worst_case_error(SequentialAndProtocol(2), empty) == 0.0

    def test_uncodable_inputs_raise_typed_errors(self):
        """What the walk cannot code fails typed: an unhashable
        coordinate with ``TypeError``, a tuple of the wrong width with
        ``ProtocolViolation`` (``validate_inputs`` runs first)."""
        import numpy

        from repro.perf import kernels

        protocol = SequentialAndProtocol(2)
        unhashable = [(1, [0]), (0, 1)]
        with pytest.raises(TypeError):
            transcript_distributions(protocol, unhashable)
        population = kernels.InputColumns(
            numpy.array([0.5, 0.5]), unhashable, unhashable, None, None, 0
        )
        with pytest.raises(TypeError):
            population_joint(protocol, population)

        with pytest.raises(ProtocolViolation):
            transcript_distributions(protocol, [(1, 0, 1), (0, 1, 1)])
        wide = DiscreteDistribution.uniform([(1, 0, 1), (0, 1, 1)])
        with pytest.raises(ProtocolViolation):
            population_joint(protocol, kernels.input_columns(wide))

    def test_one_event_and_tree_counters(self):
        protocol = SequentialAndProtocol(3)
        dist = _weighted(_bits(3))
        tracer = RecordingTracer()
        with using_tracer(tracer):
            laws = transcript_distributions(protocol, dist.support())
        (event,) = tracer.named("tree_enumerated")
        assert event.fields["inputs"] == len(laws) == 8
        # The union tree of sequential AND_3: 4 leaves, 3 internal nodes.
        assert event.fields["leaves"] == 4
        assert event.fields["nodes"] == 7
        with collecting() as reg:
            distributional_error(protocol, dist, and_task(3).evaluate)
        name = type(protocol).__name__
        assert reg.counter("tree_nodes_expanded").value(protocol=name) == 7
        assert reg.counter("tree_leaves").value(protocol=name) == 4
