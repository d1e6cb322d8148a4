"""The columnar exact joint: IC, CIC, MI, CMI and the Lemma 2 sum.

The shared walk's leaf ids go straight into array columns
(``repro.perf.kernels.columnar_joint``); the joint's outcome dict is
only built if something iterates it.  Every quantity is pinned ``==``
three ways: the column path, the joint of the dict-driven reference
walk and fold handed in as a plain dict (encoded on first use), and the
reference engines swapped in end to end (``under("legacy", ...)``).
"""

import itertools
import random

import pytest

from repro.check.generator import generate_case
from repro.check.mutations import shared_walk_joint
from repro.core import (
    conditional_information_cost,
    external_information_cost,
    internal_information_cost,
)
from repro.core.analysis import conditional_transcript_joint, transcript_joint
from repro.information import DiscreteDistribution
from repro.information.entropy import (
    conditional_mutual_information,
    mutual_information,
)
from repro.lowerbounds.hard_distribution import and_hard_distribution
from repro.lowerbounds.posterior import per_player_divergence_sum
from repro.obs import REGISTRY, disable_metrics, enable_metrics
from repro.perf import kernels
from repro.protocols import (
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
    TwoPartyDisjointnessProtocol,
)
from repro.protocols.functional import random_boolean_protocol
from repro.topology import COORDINATOR, CoordinatorAndProtocol

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)


def dict_joint(protocol, scenarios, names):
    """The joint as the dict-driven reference walk and fold build it: a
    plain outcome dict with no cached columns, so a functional encodes
    it on first use."""
    joint = shared_walk_joint(protocol, scenarios, names=names)
    assert joint._columns is None  # noqa: SLF001
    return joint


def uniform_bits(k):
    return DiscreteDistribution.uniform(
        list(itertools.product((0, 1), repeat=k))
    )


def random_weights(k, seed):
    rng = random.Random(seed)
    return DiscreteDistribution(
        {x: rng.random() + 1e-3 for x in itertools.product((0, 1), repeat=k)},
        normalize=True,
    )


IC_CASES = {
    # deterministic: one leaf per input
    "sequential-uniform": (lambda: SequentialAndProtocol(7), lambda: uniform_bits(7)),
    # noisy: several leaves per input
    "noisy-weighted": (
        lambda: NoisySequentialAndProtocol(6, 0.2),
        lambda: random_weights(6, 1),
    ),
    # randomized, history-dependent biases
    "random-boolean": (
        lambda: random_boolean_protocol(3, random.Random(7), rounds=3),
        lambda: random_weights(3, 2),
    ),
    # below _VECTOR_MIN_SUPPORT: the dict loops compute, from columns
    "small": (lambda: NoisySequentialAndProtocol(2, 0.25), lambda: uniform_bits(2)),
}

CIC_CASES = {
    # one x under several aux values (every x with two zeros or more)
    "sequential-full": (lambda: SequentialAndProtocol(7), 7, None),
    "noisy-full": (lambda: NoisySequentialAndProtocol(6, 0.125), 6, None),
    "noisy-truncated": (lambda: NoisySequentialAndProtocol(8, 0.3), 8, 2),
    "small": (lambda: NoisySequentialAndProtocol(2, 0.25), 2, None),
}


@pytest.mark.parametrize("case", IC_CASES, ids=list(IC_CASES))
def test_external_information_cost(case, under):
    make_protocol, make_dist = IC_CASES[case]
    protocol, dist = make_protocol(), make_dist()
    make_joint = lambda: transcript_joint(protocol, dist)  # noqa: E731
    column = under("vectorized", lambda: external_information_cost(protocol, dist))
    hand_built = dict_joint(protocol, dist.map(lambda x: (x,)), ("inputs",))
    from_dict = under(
        "vectorized",
        lambda: mutual_information(hand_built, "transcript", "inputs"),
    )
    legacy = under("legacy", lambda: external_information_cost(protocol, dist))
    assert column == from_dict == legacy
    joint = under("vectorized", make_joint)
    assert list(joint.items()) == list(under("legacy", make_joint).items())


@pytest.mark.parametrize("case", CIC_CASES, ids=list(CIC_CASES))
def test_conditional_information_cost_and_lemma2(case, under):
    make_protocol, k, max_zeros = CIC_CASES[case]
    protocol = make_protocol()
    mu = and_hard_distribution(k, max_zeros=max_zeros)
    make_joint = lambda: conditional_transcript_joint(protocol, mu)  # noqa: E731
    column = under(
        "vectorized", lambda: conditional_information_cost(protocol, mu)
    )
    hand_built = dict_joint(protocol, mu, ("inputs", "aux"))
    from_dict = under(
        "vectorized",
        lambda: conditional_mutual_information(
            hand_built, "transcript", "inputs", "aux"
        ),
    )
    legacy = under("legacy", lambda: conditional_information_cost(protocol, mu))
    assert column == from_dict == legacy

    joint = under("vectorized", make_joint)
    legacy_joint = under("legacy", make_joint)
    sums = [
        under("vectorized", lambda: per_player_divergence_sum(joint, k)),
        under(
            "vectorized",
            lambda: per_player_divergence_sum(
                dict_joint(protocol, mu, ("inputs", "aux")), k
            ),
        ),
        under("legacy", lambda: per_player_divergence_sum(legacy_joint, k)),
    ]
    assert sums[0] == sums[1] == sums[2]
    assert list(joint.items()) == list(legacy_joint.items())


@pytest.mark.parametrize("case", CIC_CASES, ids=list(CIC_CASES))
def test_every_functional_reads_one_encoding(case, under):
    make_protocol, k, max_zeros = CIC_CASES[case]
    protocol = make_protocol()
    mu = and_hard_distribution(k, max_zeros=max_zeros)
    make_joint = lambda: conditional_transcript_joint(protocol, mu)  # noqa: E731
    legacy_joint = under("legacy", make_joint)
    hand_built = dict_joint(protocol, mu, ("inputs", "aux"))
    joint = make_joint()
    for a, b in itertools.permutations(("inputs", "aux", "transcript"), 2):
        expected = under("legacy", lambda: mutual_information(legacy_joint, a, b))
        assert mutual_information(joint, a, b) == expected
        assert mutual_information(hand_built, a, b) == expected
    for a, b, c in itertools.permutations(("inputs", "aux", "transcript")):
        expected = under(
            "legacy",
            lambda: conditional_mutual_information(legacy_joint, a, b, c),
        )
        assert conditional_mutual_information(joint, a, b, c) == expected
        assert conditional_mutual_information(hand_built, a, b, c) == expected


def test_columns_match_a_first_use_encoding():
    protocol = NoisySequentialAndProtocol(5, 0.2)
    mu = and_hard_distribution(5)
    hand_built = dict_joint(protocol, mu, ("inputs", "aux"))
    joint = conditional_transcript_joint(protocol, mu)
    walked = kernels.joint_columns(joint)
    encoded = kernels.joint_columns(hand_built)
    assert walked.p.tolist() == encoded.p.tolist()
    for index in range(joint.arity):
        assert walked.codes[index].tolist() == encoded.codes[index].tolist()
        assert walked.values[index] == encoded.values[index]


def test_zero_mass_rows_are_dropped_like_the_dict_path(under):
    # A flip probability of 1e-170 makes two-flip leaves underflow to 0.0
    # (dropped from their input's law), and a 1e-300 input times a
    # one-flip transcript underflows in the joint (dropped there); both
    # filters then renumber the columns in first-seen order.
    protocol = NoisySequentialAndProtocol(3, 1e-170)
    weights = {x: 1.0 for x in itertools.product((0, 1), repeat=3)}
    weights[(1, 0, 1)] = 1e-300
    dist = DiscreteDistribution(weights, normalize=True)
    scenarios = dist.map(lambda x: (x, sum(x)))
    make_joint = lambda: conditional_transcript_joint(  # noqa: E731
        protocol, scenarios
    )
    joint = make_joint()
    columns = kernels.joint_columns(joint)
    assert len(columns.p) < 8 * 4  # rows really dropped
    assert list(joint.items()) == list(under("legacy", make_joint).items())
    hand_built = dict_joint(protocol, scenarios, ("inputs", "aux"))
    encoded = kernels.joint_columns(hand_built)
    assert columns.p.tolist() == encoded.p.tolist()
    for index in range(3):
        assert columns.codes[index].tolist() == encoded.codes[index].tolist()
        assert columns.values[index] == encoded.values[index]


def test_coordinator_medium(under):
    protocol = CoordinatorAndProtocol(6)
    dist = random_weights(6, 3)
    column = under(
        "vectorized",
        lambda: external_information_cost(protocol, dist, medium=COORDINATOR),
    )
    legacy = under(
        "legacy",
        lambda: external_information_cost(protocol, dist, medium=COORDINATOR),
    )
    assert column == legacy


def test_internal_information_cost_custom_inputs_of(under):
    protocol = TwoPartyDisjointnessProtocol(3)
    dist = DiscreteDistribution.uniform(
        list(itertools.product(range(8), repeat=2))
    )
    column = under("vectorized", lambda: internal_information_cost(protocol, dist))
    legacy = under("legacy", lambda: internal_information_cost(protocol, dist))
    assert column == legacy


@pytest.mark.parametrize("index", range(8))
def test_generated_cases(index, under):
    case = generate_case(11, index)
    column = under(
        "vectorized",
        lambda: external_information_cost(case.protocol, case.input_dist),
    )
    legacy = under(
        "legacy",
        lambda: external_information_cost(case.protocol, case.input_dist),
    )
    assert column == legacy


def test_ic_never_builds_the_outcome_dict():
    protocol = SequentialAndProtocol(8)
    joint = transcript_joint(protocol, uniform_bits(8))
    mutual_information(joint, "transcript", "inputs")
    assert joint._law is None  # noqa: SLF001 - the deferred dict
    assert len(joint.support()) == len(kernels.joint_columns(joint).p)
    assert joint._law is not None  # noqa: SLF001


def test_column_path_counter(under):
    enable_metrics(reset=True)
    try:
        external_information_cost(SequentialAndProtocol(7), uniform_bits(7))
        counter = REGISTRY.counter("kernel_vectorized_calls")
        assert counter.value(op="tree_walk") == 1
        assert counter.value(op="joint_columns") == 1
        assert counter.value(op="mutual_information") == 1
        enable_metrics(reset=True)
        under(
            "legacy",
            lambda: external_information_cost(
                SequentialAndProtocol(7), uniform_bits(7)
            ),
        )
        # The reference walk and fold are not array-path invocations.
        counter = REGISTRY.counter("kernel_vectorized_calls")
        assert counter.value(op="tree_walk") == 0
        assert counter.value(op="mutual_information") == 0
    finally:
        disable_metrics()


def test_deferred_joint_pickles_as_its_outcome_dict():
    import pickle

    joint = transcript_joint(SequentialAndProtocol(7), uniform_bits(7))
    copied = pickle.loads(pickle.dumps(joint))
    assert copied.names == joint.names
    assert list(copied.items()) == list(joint.items())
    assert mutual_information(copied, "transcript", "inputs") == (
        mutual_information(joint, "transcript", "inputs")
    )
