"""The exact joints of one input law, against the scenario-map construction.

``transcript_joint`` and ``conditional_transcript_joint`` must return,
float for float and in the same item order, what the public scenario
construction returns: ``input_dist.map(lambda x: (x,))`` (or the pair
law itself) handed to ``joint_transcript_distribution``.  Every
case is checked on the engine and with the reference engines swapped
in (the ``legacy`` ids): the ``float.hex`` of every joint
mass, the outcome tuples, the column codes and decoded values, and the
MI / CMI read off the joint.
"""

import itertools
import pickle
import random

import pytest

from repro.compression.gap import _iid_bits
from repro.core import (
    conditional_information_cost,
    external_information_cost,
    joint_transcript_distribution,
)
from repro.core.analysis import conditional_transcript_joint, transcript_joint
from repro.core.tasks import all_boolean_inputs
from repro.information import DiscreteDistribution
from repro.information.entropy import (
    conditional_mutual_information,
    mutual_information,
)
from repro.lowerbounds.hard_distribution import (
    and_hard_distribution,
    and_hard_input_marginal,
    lemma6_distribution,
)
from repro.perf import kernels
from repro.protocols import (
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
    TrivialDisjointnessProtocol,
)

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

#: ``legacy`` runs each computation with the reference engines of
#: :func:`repro.check.mutations.reference_engines` swapped in.
KERNELS = ("legacy", "vectorized")


def uniform_cube(k):
    return DiscreteDistribution.uniform(list(all_boolean_inputs(k)))


def underflow_law():
    # A total of 2.0 halves every weight; the smallest subnormal halves
    # to 0.0, so the law stores a zero mass.
    weights = {x: 1.0 / 64.0 for x in itertools.product((0, 1), repeat=7)}
    weights[(1,) * 7] = 2.0 - 1.0
    weights[(0,) * 7] = 5e-324
    law = DiscreteDistribution(weights, normalize=True)
    assert law[(0,) * 7] == 0.0 and (0,) * 7 in law
    return law


def bigint_law():
    rng = random.Random(3)
    masks = [
        tuple(rng.getrandbits(70) for _player in range(2)) for _x in range(70)
    ]
    return DiscreteDistribution.uniform(masks)


def string_law():
    return DiscreteDistribution.from_weights(
        {
            tuple(str(bit) for bit in x): 1.0 + sum(x)
            for x in itertools.product((0, 1), repeat=7)
        }
    )


INPUT_CASES = {
    **{
        f"uniform-k{k}": (
            lambda k=k: SequentialAndProtocol(k),
            lambda k=k: uniform_cube(k),
        )
        for k in (2, 6, 10)
    },
    **{
        f"fair-bits-k{k}": (
            lambda k=k: SequentialAndProtocol(k),
            lambda k=k: _iid_bits(k, 0.5),
        )
        for k in (3, 10)
    },
    **{
        f"iid-biased-k{k}": (
            lambda k=k: SequentialAndProtocol(k),
            lambda k=k: _iid_bits(k, 1.0 - 1.0 / k),
        )
        for k in (2, 7, 10)
    },
    **{
        f"hard-marginal-k{k}": (
            lambda k=k: SequentialAndProtocol(k),
            lambda k=k: and_hard_input_marginal(k),
        )
        for k in (2, 8, 10)
    },
    "hard-marginal-truncated": (
        lambda: SequentialAndProtocol(10),
        lambda: and_hard_input_marginal(10, max_zeros=3),
    ),
    **{
        f"lemma6-k{k}": (
            lambda k=k: SequentialAndProtocol(k),
            lambda k=k: lemma6_distribution(k, 0.2),
        )
        for k in (2, 10)
    },
    "noisy-cube": (
        lambda: NoisySequentialAndProtocol(7, 0.2),
        lambda: _iid_bits(7, 0.7),
    ),
    "underflow": (lambda: SequentialAndProtocol(7), underflow_law),
    "bigint-masks": (lambda: TrivialDisjointnessProtocol(70, 2), bigint_law),
    "strings": (lambda: SequentialAndProtocol(7), string_law),
}

PAIR_CASES = {
    **{
        f"hard-k{k}-full": (lambda k=k: SequentialAndProtocol(k), k, None)
        for k in (2, 5, 9)
    },
    **{
        f"hard-k{k}-max{z}": (lambda k=k: SequentialAndProtocol(k), k, z)
        for k in (6, 10)
        for z in (2, 3)
    },
    "noisy-hard-k7": (lambda: NoisySequentialAndProtocol(7, 0.125), 7, 3),
}


def fresh_copy(dist):
    """The same law with an empty column slot: a pickle round trip."""
    return pickle.loads(pickle.dumps(dist))


def snapshot(joint):
    """Everything a reader of the joint can observe, hex-exact."""
    columns = kernels.joint_columns(joint)
    return {
        "names": joint.names,
        "items": [(outcome, p.hex()) for outcome, p in joint.items()],
        "codes": [column.tolist() for column in columns.codes],
        "values": columns.values,
        "p": [p.hex() for p in columns.p.tolist()],
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", INPUT_CASES, ids=list(INPUT_CASES))
def test_transcript_joint_matches_the_scenario_map(case, kernel, under):
    make_protocol, make_law = INPUT_CASES[case]
    protocol, law = make_protocol(), make_law()

    def new():
        return transcript_joint(protocol, law)

    def old():
        scenarios = law.map(lambda x: (x,))
        return joint_transcript_distribution(
            protocol, scenarios, names=("inputs",)
        )

    new_joint, old_joint = under(kernel, new), under(kernel, old)
    new_mi = under(
        kernel, lambda: mutual_information(new(), "transcript", "inputs")
    )
    old_mi = under(
        kernel, lambda: mutual_information(old(), "transcript", "inputs")
    )
    assert new_mi.hex() == old_mi.hex()
    ic = under(kernel, lambda: external_information_cost(protocol, law))
    assert ic.hex() == old_mi.hex()
    assert snapshot(new_joint) == snapshot(old_joint)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", PAIR_CASES, ids=list(PAIR_CASES))
def test_conditional_transcript_joint_matches_the_pair_law(
    case, kernel, under
):
    make_protocol, k, max_zeros = PAIR_CASES[case]
    protocol = make_protocol()
    mu = and_hard_distribution(k, max_zeros=max_zeros)

    def new():
        return conditional_transcript_joint(protocol, mu)

    def old():
        return joint_transcript_distribution(
            protocol, fresh_copy(mu), names=("inputs", "aux")
        )

    def by_tuples():
        return joint_transcript_distribution(
            protocol,
            fresh_copy(mu),
            lambda scenario: scenario[0],
            names=("inputs", "aux"),
        )

    joints = [under(kernel, make) for make in (new, old, by_tuples)]
    cmis = [
        under(
            kernel,
            lambda make=make: conditional_mutual_information(
                make(), "transcript", "inputs", "aux"
            ),
        ).hex()
        for make in (new, old, by_tuples)
    ]
    cic = under(kernel, lambda: conditional_information_cost(protocol, mu))
    assert cmis == [cic.hex()] * 3
    first = snapshot(joints[0])
    assert snapshot(joints[1]) == first
    assert snapshot(joints[2]) == first


@pytest.mark.parametrize("kernel", KERNELS)
def test_pair_law_with_a_zero_mass(kernel, under):
    weights = {
        (x, z): 1.0
        for x in itertools.product((0, 1), repeat=6)
        for z in range(2)
        if x[z] == 0
    }
    weights[((0,) * 6, 0)] = 5e-324
    weights[((1, 0, 1, 1, 1, 1), 1)] = 40.0
    mu = DiscreteDistribution(weights, normalize=True)
    assert mu[((0,) * 6, 0)] == 0.0
    protocol = NoisySequentialAndProtocol(6, 0.25)
    new = under(kernel, lambda: conditional_transcript_joint(protocol, mu))
    old = under(
        kernel,
        lambda: joint_transcript_distribution(
            protocol, fresh_copy(mu), names=("inputs", "aux")
        ),
    )
    assert snapshot(new) == snapshot(old)


@pytest.mark.parametrize("kernel", KERNELS)
def test_non_pair_law_raises_the_same_type_error(kernel, under):
    mu = DiscreteDistribution.uniform([((1, 0), 0), ((0, 1), 1, "extra")])
    with pytest.raises(TypeError) as caught:
        under(
            kernel,
            lambda: conditional_transcript_joint(SequentialAndProtocol(2), mu),
        )
    assert str(caught.value) == (
        "mu must be over (inputs, aux) pairs, got outcome "
        f"{((0, 1), 1, 'extra')!r}"
    )


@pytest.mark.parametrize(
    "make_law,paired",
    [
        (lambda: _iid_bits(6, 0.3), False),
        (lambda: and_hard_input_marginal(6), False),
        (lambda: and_hard_distribution(6, max_zeros=2), True),
    ],
    ids=["cube", "marginal", "pair"],
)
def test_pickled_law_round_trips_without_its_columns(make_law, paired):
    law = make_law()
    protocol = SequentialAndProtocol(6)
    if paired:
        conditional_transcript_joint(protocol, law)
    else:
        transcript_joint(protocol, law)
    copy = fresh_copy(law)
    assert copy == law
    assert [(o, p.hex()) for o, p in copy.items()] == [
        (o, p.hex()) for o, p in law.items()
    ]
    assert getattr(copy, "_columns", None) is None


@pytest.mark.parametrize("k", [1, 4, 9])
def test_fair_bits_are_the_uniform_cube(k):
    fair, uniform = _iid_bits(k, 0.5), uniform_cube(k)
    assert [(x, p.hex()) for x, p in fair.items()] == [
        (x, p.hex()) for x, p in uniform.items()
    ]


@pytest.mark.parametrize(
    "make_law,paired",
    [
        (lambda: _iid_bits(7, 0.3), False),
        (lambda: _iid_bits(5, 1.0), False),
        (lambda: and_hard_input_marginal(9), False),
        (lambda: and_hard_input_marginal(9, max_zeros=2), False),
        (lambda: lemma6_distribution(8, 0.2), False),
        (lambda: and_hard_distribution(7), True),
        (lambda: and_hard_distribution(9, max_zeros=3), True),
    ],
    ids=[
        "cube", "point-cube", "marginal", "marginal-truncated", "lemma6",
        "pair", "pair-truncated",
    ],
)
def test_constructor_columns_equal_the_lazy_encoding(make_law, paired):
    """A constructor that fills the column slot while it generates the
    law stores what the first-use encoder derives from the tuples."""
    law = make_law()
    built = law._columns  # noqa: SLF001
    assert built is not None
    encoded = kernels.input_columns(fresh_copy(law), paired=paired)
    assert [p.hex() for p in built.p.tolist()] == [
        p.hex() for p in encoded.p.tolist()
    ]
    assert list(built.outcomes) == list(encoded.outcomes) == law.support()
    assert list(built.inputs) == list(encoded.inputs)
    assert built.codes.tolist() == encoded.codes.tolist()
    assert built.codes.dtype == encoded.codes.dtype
    assert built.span >= int(encoded.codes.max()) + 1
    if paired:
        assert built.member.tolist() == encoded.member.tolist()
        assert built.scenario[1][0].tolist() == encoded.scenario[1][0].tolist()
        assert built.scenario[1][1] == encoded.scenario[1][1]
    else:
        assert built.member is None and built.scenario is None
    # One encoding per law: a second reader (E2's second protocol on
    # the same mu) gets the cached columns.
    assert kernels.input_columns(law, paired=paired) is built
    assert law.map(lambda outcome: outcome)._columns is None  # noqa: SLF001
