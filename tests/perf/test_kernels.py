"""repro.perf.kernels: the exact engine's contract.

The property everything rests on is *bit identity*: every quantity the
engine computes (tree walks, mutual informations, the Lemma 3 class
probabilities, the Lemma 2 divergence sum, the E14 rectangle DP, the E1
protocol simulators) must equal its reference exactly, float for float,
outcome order included.  The references are the dict-driven shared walk
and dict fold of :mod:`repro.check.mutations`, called directly or
swapped in by the ``reference_and_engine`` fixture, and the scalar
folds and rectangle recursion behind the size gates, which the fixture
selects by moving ``_VECTOR_MIN_SUPPORT`` and ``_E14_CELL_CAP``.  What
is left of the kernel switch is the ``perfbench/pin.py`` shim.
"""

import itertools
import math
import random

import pytest

from repro.check import mutations
from repro.check.generator import GeneratedCoordinatorProtocol, generate_case
from repro.core import (
    conditional_information_cost,
    external_information_cost,
    internal_information_cost,
    joint_transcript_distribution,
    run_protocol,
)
from repro.core.model import Protocol, ProtocolViolation, TopologyViolation
from repro.core.tasks import disjointness_task
from repro.experiments.e1_disjointness_scaling import measure_point
from repro.experiments.workloads import partition_instance, random_instance
from repro.information import DiscreteDistribution, JointDistribution
from repro.information.divergence import kl_divergence
from repro.information.entropy import (
    conditional_mutual_information,
    mutual_information,
)
from repro.lowerbounds.hard_distribution import and_hard_distribution
from repro.lowerbounds.optimal_information import (
    minimum_zero_error_cic,
    minimum_zero_error_external_ic,
)
from repro.lowerbounds.posterior import per_player_divergence_sum
from repro.lowerbounds.transcripts import analyze_good_transcripts
from repro.obs import REGISTRY, disable_metrics, enable_metrics
from repro.perf import kernels
from repro.protocols import (
    ALL_PROTOCOLS,
    FullBroadcastAndProtocol,
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
    TwoPartyDisjointnessProtocol,
)
from repro.topology import (
    COORDINATOR,
    CoordinatorAndProtocol,
    CoordinatorDisjointnessProtocol,
    Link,
    RingTokenAndProtocol,
    ring_medium,
)

numpy_required = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)


# ----------------------------------------------------------------------
# The pin shim: what is left of the kernel switch.
# ----------------------------------------------------------------------
class TestKernelSwitch:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.set_kernel("simd")

    def test_none_is_a_no_op(self):
        kernels.set_kernel(None)
        kernels.set_kernel("vectorized")
        assert kernels.get_kernel() == "vectorized"

    def test_legacy_names_its_replacement(self):
        with pytest.raises(ValueError, match="test_reference_engines"):
            kernels.set_kernel("legacy")

    def test_missing_numpy_fails_at_selection_time(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy", None)
        assert not kernels.numpy_available()
        with pytest.raises(ImportError, match="numpy>=1.21"):
            kernels.require_numpy()
        with pytest.raises(ImportError, match="numpy>=1.21"):
            kernels.set_kernel("vectorized")


# ----------------------------------------------------------------------
# Bit-identity: tree walks over the whole protocol suite.
# ----------------------------------------------------------------------
def scenario_distribution(input_tuples):
    return DiscreteDistribution.uniform([(t,) for t in input_tuples])


#: The two engines of a joint law, by the name its test ids keep.
JOINTS = {
    "legacy": mutations.shared_walk_joint,
    "vectorized": joint_transcript_distribution,
}


def both_joints(*args, **kwargs):
    """The joint from the dict-driven reference, and from the engine."""
    return tuple(joint(*args, **kwargs) for joint in JOINTS.values())


def assert_joint_identical(legacy, vectorized):
    assert legacy.names == vectorized.names
    assert list(legacy.items()) == list(vectorized.items())


@numpy_required
class TestTreeWalkIdentity:
    @pytest.mark.parametrize(
        "case", ALL_PROTOCOLS, ids=[case.name for case in ALL_PROTOCOLS]
    )
    def test_registry_protocols(self, case):
        protocol = case.build()
        inputs = case.input_tuples()
        if len(inputs) > 64:
            inputs = inputs[::3][:64]
        scenarios = scenario_distribution(inputs)
        legacy, vectorized = both_joints(
            protocol, scenarios, names=("inputs",)
        )
        assert_joint_identical(legacy, vectorized)

    @pytest.mark.parametrize(
        "protocol, medium, inputs",
        [
            pytest.param(
                CoordinatorDisjointnessProtocol(2, 3),
                COORDINATOR,
                list(itertools.product(range(4), repeat=3)),
                id="coordinator-disjointness",
            ),
            pytest.param(
                CoordinatorAndProtocol(5),
                COORDINATOR,
                list(itertools.product((0, 1), repeat=5)),
                id="coordinator-and",
            ),
            pytest.param(
                RingTokenAndProtocol(5),
                ring_medium(5),
                list(itertools.product((0, 1), repeat=5)),
                id="ring-token-and",
            ),
        ]
        + [
            pytest.param(
                GeneratedCoordinatorProtocol(seed, 2 + seed % 2),
                COORDINATOR,
                list(itertools.product((0, 1), repeat=2 + seed % 2)),
                id=f"generated-coordinator-{seed}",
            )
            for seed in range(4)
        ],
    )
    def test_medium_protocols(self, protocol, medium, inputs):
        scenarios = scenario_distribution(inputs)
        legacy, vectorized = both_joints(
            protocol, scenarios, names=("inputs",), medium=medium
        )
        assert_joint_identical(legacy, vectorized)

    @pytest.mark.parametrize("kernel", sorted(JOINTS))
    def test_off_medium_edge_rejected(self, kernel):
        # The ring protocol writes on Link(0, 1), which the coordinator
        # medium does not have.
        scenarios = scenario_distribution(
            list(itertools.product((0, 1), repeat=3))
        )
        with pytest.raises(TopologyViolation, match="is not a link"):
            JOINTS[kernel](
                RingTokenAndProtocol(3), scenarios, medium=COORDINATOR
            )

    @pytest.mark.parametrize("index", range(25))
    def test_generated_protocols(self, index):
        case = generate_case(2026, index)
        scenarios = case.input_dist.map(lambda x: (x,))
        legacy, vectorized = both_joints(
            case.protocol, scenarios, names=("inputs",)
        )
        assert_joint_identical(legacy, vectorized)

    def test_weighted_aux_scenarios(self):
        protocol = NoisySequentialAndProtocol(3, 0.125)
        mu = and_hard_distribution(3)
        legacy, vectorized = both_joints(
            protocol, mu, names=("inputs", "aux")
        )
        assert_joint_identical(legacy, vectorized)

    @pytest.mark.parametrize("lineage_bits", [None, 4])
    def test_partially_halting_levels(self, lineage_bits, monkeypatch):
        # On the full k=10 support of the hard distribution every level
        # halts the nodes that just wrote a zero while their siblings
        # continue, so the next level gathers the rows of some nodes
        # only, from several partition blocks each.
        if lineage_bits is not None:
            monkeypatch.setattr(kernels, "_LINEAGE_BITS", lineage_bits)
        protocol = SequentialAndProtocol(10)
        mu = and_hard_distribution(10)
        legacy, vectorized = both_joints(
            protocol, mu, names=("inputs", "aux")
        )
        assert_joint_identical(legacy, vectorized)

    def test_lineage_spill_path(self, monkeypatch):
        # Force the mixed-radix lineage codes to overflow into frozen
        # columns almost immediately; the walk must still match legacy.
        monkeypatch.setattr(kernels, "_LINEAGE_BITS", 4)
        case = generate_case(2026, 3)
        scenarios = case.input_dist.map(lambda x: (x,))
        legacy, vectorized = both_joints(
            case.protocol, scenarios, names=("inputs",)
        )
        assert_joint_identical(legacy, vectorized)


class PhasedBitProtocol(Protocol):
    """Message ``t`` is written by node ``speakers[t % len(speakers)]``
    in mode ``phases[t]``: ``"r"`` reveals the speaker's bit, ``"n"``
    flips it with probability 1/8, ``"e"`` writes the empty message.  An
    input-less speaker (id ``>= k``) reads its bit as 1.

    Reveal phases thin the population to one input per node; the noisy
    phases around them fork both before and inside those one-input
    subtrees."""

    def __init__(self, k, phases, speakers=None):
        super().__init__(k)
        self._phases = phases
        self._speakers = tuple(range(k)) if speakers is None else speakers

    def initial_state(self):
        return 0

    def advance_state(self, state, message):
        return state + 1

    def next_speaker(self, state, board):
        if state >= len(self._phases):
            return None
        return self._speakers[state % len(self._speakers)]

    def message_distribution(self, state, speaker, speaker_input, board):
        phase = self._phases[state]
        bit = 1 if speaker_input is None else speaker_input
        if phase == "e":
            return DiscreteDistribution.point_mass("")
        if phase == "r":
            return DiscreteDistribution.point_mass(str(bit))
        p_one = 0.875 if bit else 0.125
        return DiscreteDistribution({"1": p_one, "0": 1.0 - p_one})

    def output(self, state, board):
        return 0


class PhasedHubProtocol(PhasedBitProtocol):
    """:class:`PhasedBitProtocol` on the coordinator medium: player ``i``
    writes on its own link, the hub (node ``k``) on player
    ``t mod k``'s."""

    def next_edge(self, state, board):
        speaker = self.next_speaker(state, board)
        if speaker is None:
            return None
        k = self.num_players
        return (speaker, Link(speaker if speaker < k else state % k, k))


WALKS = (mutations.shared_walk_reference, kernels.tree_walk_sorted_leaves)


def assert_walks_identical(protocol, inputs, *, max_messages=64, **kwargs):
    """Counts, boards, every probability's ``float.hex`` and the walk
    statistics of the reference and the engine walk agree."""
    (rows, *legacy_stats), (leaves, *stats) = [
        walk(protocol, inputs, max_messages=max_messages, **kwargs)
        for walk in WALKS
    ]
    counts, boards, probs = leaves.rows()
    assert counts == rows[0]
    assert boards == rows[1]
    assert [p.hex() for p in probs] == [p.hex() for p in rows[2]]
    assert stats == legacy_stats
    return leaves


def hard_inputs(k, max_zeros):
    """The distinct input tuples of the (truncated) hard distribution."""
    support = and_hard_distribution(k, max_zeros=max_zeros).support()
    return list(dict.fromkeys(x for x, _z in support))


@numpy_required
class TestOneInputSubtrees:
    """Trees made mostly of subtrees whose population is one input: the
    engine walk must still equal the dict-driven reference row for
    row."""

    @pytest.mark.parametrize("max_zeros", [2, 3])
    @pytest.mark.parametrize("k", [4, 9, 14, 20])
    @pytest.mark.parametrize(
        "build", [SequentialAndProtocol, FullBroadcastAndProtocol]
    )
    def test_hard_distribution_supports(self, build, k, max_zeros):
        assert_walks_identical(build(k), hard_inputs(k, max_zeros))

    @pytest.mark.parametrize("k", [5, 9])
    def test_zero_noise_prunes_inside_subtrees(self, k):
        # flip_prob = 0 writes the losing bit with probability 0.0: the
        # pruned entry still takes up its message index.
        assert_walks_identical(
            NoisySequentialAndProtocol(k, 0.0), hard_inputs(k, 3)
        )

    @pytest.mark.parametrize("inputs", [[(1, 0, 1, 1, 0, 1)], [(0,) * 6]])
    def test_single_input_noisy_tree(self, inputs):
        # One input: the root itself is a one-input subtree with 2^6
        # leaves.
        leaves = assert_walks_identical(
            NoisySequentialAndProtocol(6, 0.125), inputs
        )
        assert leaves.counts.tolist() == [64]

    @pytest.mark.parametrize(
        "phases", ["rrrnnn", "nrrrnn", "nnrrrrnnn", "rnrnrnnn"]
    )
    def test_members_fork_inside_subtrees(self, phases):
        # Noisy levels before the reveals give a member several
        # one-input subtrees; noisy levels after them give each subtree
        # several leaves.
        inputs = list(itertools.product((0, 1), repeat=3))
        leaves = assert_walks_identical(PhasedBitProtocol(3, phases), inputs)
        assert int(leaves.counts.min()) > 1

    @pytest.mark.parametrize("lineage_bits", [2, 3])
    def test_lineage_spills_before_subtrees(self, lineage_bits, monkeypatch):
        # Four forking levels overflow the lineage code before the reveals
        # thin the population, so the subtrees carry spill columns.
        monkeypatch.setattr(kernels, "_LINEAGE_BITS", lineage_bits)
        inputs = list(itertools.product((0, 1), repeat=3))
        assert_walks_identical(PhasedBitProtocol(3, "nnnnrrrnn"), inputs)

    def test_inputless_speaker_inside_subtrees(self):
        # The hub (node 3) speaks after the reveals, inside one-input
        # subtrees, and forks there.
        inputs = list(itertools.product((0, 1), repeat=3))
        protocol = PhasedHubProtocol(3, "rrrnnrnn", speakers=(0, 1, 2, 3))
        assert_walks_identical(protocol, inputs, medium=COORDINATOR)

    def test_coordinator_relay_inside_subtrees(self):
        # x2 is a function of (x0, x1), so once player 1 has replied an
        # all-ones x0 leaves one input per node and the hub's forward to
        # player 2 happens inside that input's subtree.
        inputs = [(a, b, (a + b) % 4) for a in range(4) for b in range(4)]
        assert_walks_identical(
            CoordinatorDisjointnessProtocol(2, 3), inputs, medium=COORDINATOR
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_coordinator_single_input(self, seed):
        protocol = GeneratedCoordinatorProtocol(seed, 3)
        assert_walks_identical(protocol, [(1, 0, 1)], medium=COORDINATOR)

    @pytest.mark.parametrize(
        "protocol, inputs, max_messages",
        [
            pytest.param(
                FullBroadcastAndProtocol(6),
                list(itertools.product((0, 1), repeat=6)),
                5,
                id="max-messages",
            ),
            pytest.param(
                PhasedBitProtocol(3, "rrrne"),
                list(itertools.product((0, 1), repeat=3)),
                64,
                id="empty-message",
            ),
        ],
    )
    def test_violations_inside_subtrees(self, protocol, inputs, max_messages):
        # Every node at the offending depth holds one input.
        errors = []
        for walk in WALKS:
            with pytest.raises(ProtocolViolation) as info:
                walk(protocol, inputs, max_messages=max_messages)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0] in (
            "protocols may not write empty messages",
            f"protocol exceeded {max_messages} messages during exact "
            "enumeration",
        )


# ----------------------------------------------------------------------
# Bit-identity: information quantities.
# ----------------------------------------------------------------------
def random_joint(seed, shape):
    """A random named joint law over a product outcome space."""
    rng = random.Random(seed)
    outcomes = list(itertools.product(*[range(size) for size in shape]))
    probs = {outcome: rng.random() + 1e-3 for outcome in outcomes}
    names = ("a", "b", "c")[: len(shape)]
    return JointDistribution(probs, names=names, normalize=True)


@numpy_required
class TestInformationIdentity:
    @pytest.fixture(autouse=True)
    def force_fast_paths(self, monkeypatch):
        # The fast paths only engage above _VECTOR_MIN_SUPPORT outcomes;
        # drop the gate so small fixtures exercise them.
        monkeypatch.setattr(kernels, "_VECTOR_MIN_SUPPORT", 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_entropy(self, seed):
        # One scalar path: the historical formula, in dict order.
        rng = random.Random(seed)
        probs = {i: rng.random() + 1e-3 for i in range(40)}
        dist = DiscreteDistribution(probs, normalize=True)
        reference = -sum(p * math.log2(p) for _o, p in dist.items())
        assert dist.entropy() == reference

    @pytest.mark.parametrize("seed", range(5))
    def test_kl_divergence(self, seed):
        rng = random.Random(seed)
        support = list(range(30))
        posterior = DiscreteDistribution(
            {i: rng.random() + 1e-3 for i in support}, normalize=True
        )
        prior = DiscreteDistribution(
            {i: rng.random() + 1e-3 for i in support}, normalize=True
        )
        # One scalar path: Definition 4 folded in posterior order.
        reference = 0.0
        for outcome, p in posterior.items():
            reference += p * math.log2(p / prior[outcome])
        assert kl_divergence(posterior, prior) == max(reference, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_mutual_information(self, reference_and_engine, seed):
        joint = random_joint(seed, (4, 5))
        legacy, vectorized = reference_and_engine(
            lambda: mutual_information(joint, "a", "b")
        )
        assert legacy == vectorized

    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_mutual_information(
        self, reference_and_engine, seed
    ):
        joint = random_joint(seed, (3, 4, 3))
        legacy, vectorized = reference_and_engine(
            lambda: conditional_mutual_information(joint, "a", "b", "c")
        )
        assert legacy == vectorized

    def test_information_costs(self, reference_and_engine):
        protocol = NoisySequentialAndProtocol(3, 0.25)
        mu = and_hard_distribution(3)
        legacy, vectorized = reference_and_engine(
            lambda: conditional_information_cost(protocol, mu)
        )
        assert legacy == vectorized
        uniform = DiscreteDistribution.uniform(
            list(itertools.product((0, 1), repeat=3))
        )
        legacy, vectorized = reference_and_engine(
            lambda: external_information_cost(protocol, uniform)
        )
        assert legacy == vectorized

    def test_internal_information_cost(self, reference_and_engine):
        protocol = TwoPartyDisjointnessProtocol(2)
        uniform = DiscreteDistribution.uniform(
            list(itertools.product(range(4), repeat=2))
        )
        legacy, vectorized = reference_and_engine(
            lambda: internal_information_cost(protocol, uniform)
        )
        assert legacy == vectorized

    def test_per_player_divergence_sum(self, reference_and_engine):
        protocol = NoisySequentialAndProtocol(3, 0.125)
        mu = and_hard_distribution(3)
        legacy, vectorized = reference_and_engine(
            lambda: per_player_divergence_sum(
                joint_transcript_distribution(
                    protocol, mu, names=("inputs", "aux")
                ),
                3,
            )
        )
        assert legacy == vectorized

    def test_lemma3_transcript_classification(
        self, reference_and_engine
    ):
        legacy, vectorized = reference_and_engine(
            lambda: analyze_good_transcripts(
                NoisySequentialAndProtocol(3, 0.25)
            )
        )
        assert legacy == vectorized


# ----------------------------------------------------------------------
# Bit-identity where the legacy twin calls builtin sum().
# ----------------------------------------------------------------------
def plain_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


def compensated_fold(values):
    """Builtin ``sum()`` of floats from Python 3.12 on (Neumaier)."""
    total = compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation else total


def separates(values):
    return plain_fold(values) != compensated_fold(values)


@numpy_required
class TestBuiltinSumSites:
    """Each kernel site whose legacy twin calls builtin ``sum()`` (or the
    normalizing constructor, which does) is pinned on a vector where the
    plain and the compensated fold differ, so the pin holds on every
    Python version only if the site calls ``sum()`` too.  Each test
    first asserts that its vector really separates the two folds."""

    @pytest.fixture(autouse=True)
    def force_fast_paths(self, monkeypatch):
        monkeypatch.setattr(kernels, "_VECTOR_MIN_SUPPORT", 0)

    def test_model_of_builtin_sum(self):
        import sys

        rng = random.Random(0)
        model = compensated_fold if sys.version_info >= (3, 12) else plain_fold
        for _ in range(200):
            values = [rng.random() for _ in range(rng.randint(1, 40))]
            assert sum(values) == model(values)

    def test_entropy(self):
        rng = random.Random(0)
        dist = DiscreteDistribution(
            {i: rng.random() + 1e-3 for i in range(70)}, normalize=True
        )
        terms = [p * math.log2(p) for _o, p in dist.items()]
        assert separates(terms)
        assert dist.entropy() == -sum(terms)

    def test_marginal_normalizer(self, reference_and_engine):
        joint = random_joint(3, (12, 6))
        acc = {}
        for (a, _b), p in joint.items():
            acc[a] = acc.get(a, 0.0) + p
        assert separates(list(acc.values()))
        legacy, vectorized = reference_and_engine(
            lambda: mutual_information(
                JointDistribution(dict(joint.items()), names=("a", "b")),
                "a",
                "b",
            )
        )
        assert legacy == vectorized

    def test_conditional_slice_normalizer_and_mass(
        self, reference_and_engine
    ):
        joint = random_joint(1, (4, 5, 3))
        slices = {}
        for outcome, p in joint.items():
            slices.setdefault(outcome[2], []).append(p)
        assert any(separates(raw) for raw in slices.values())
        # The once-scaled slice separates whichever fold normalized it.
        for fold in (plain_fold, compensated_fold):
            assert any(
                separates([p * (1.0 / fold(raw)) for p in raw])
                for raw in slices.values()
            )
        legacy, vectorized = reference_and_engine(
            lambda: conditional_mutual_information(
                JointDistribution(dict(joint.items()), names=("a", "b", "c")),
                "a",
                "b",
                "c",
            )
        )
        assert legacy == vectorized

    def test_class_conditioned_probability(self):
        from repro.core.model import EMPTY_TRANSCRIPT
        from repro.lowerbounds.decomposition import TranscriptFactors
        from repro.lowerbounds.transcripts import (
            _class_conditioned_probability,
        )

        rng = random.Random(0)
        k = 8
        table = [(rng.random(), rng.random()) for _ in range(k)]
        factors = TranscriptFactors(
            EMPTY_TRANSCRIPT, tuple({0: q0, 1: q1} for q0, q1 in table)
        )
        inputs = [
            tuple(0 if i in zeros else 1 for i in range(k))
            for zeros in itertools.combinations(range(k), 2)
        ]
        assert separates([factors.probability(x) for x in inputs])
        np_ = kernels.require_numpy()
        vectorized = kernels.class_conditioned_probabilities(
            [np_.array(row, dtype=np_.float64) for row in table],
            np_.array(inputs, dtype=np_.int64),
        )
        assert vectorized == _class_conditioned_probability(factors, inputs)


# ----------------------------------------------------------------------
# Bit-identity: the E14 rectangle DP.
# ----------------------------------------------------------------------
RECTANGLE_TASKS = {
    "and": lambda x: int(all(x)),
    "or": lambda x: int(any(x)),
    "xor": lambda x: sum(x) % 2,
    "majority": lambda x: int(2 * sum(x) > len(x)),
}


def skewed_marginals(k, seed):
    """Seeded non-uniform ``Pr[X_i = 1]`` with one certain-0 and one
    certain-1 player, so zero-mass rectangles and non-trivial products
    both reach the DP."""
    rng = random.Random(seed)
    marginals = [rng.random() for _ in range(k)]
    zero, one = rng.sample(range(k), 2)
    marginals[zero] = 0.0
    marginals[one] = 1.0
    return marginals


@numpy_required
class TestRectangleDPIdentity:
    @pytest.mark.parametrize("k", (2, 3, 4, 5, 6, 7))
    def test_minimum_zero_error_cic(self, reference_and_engine, k):
        legacy, vectorized = reference_and_engine(
            lambda: minimum_zero_error_cic(k)
        )
        assert legacy.hex() == vectorized.hex()

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_minimum_zero_error_external_ic(self, reference_and_engine, k):
        for evaluate in RECTANGLE_TASKS.values():
            legacy, vectorized = reference_and_engine(
                lambda: minimum_zero_error_external_ic(
                    k, evaluate, [0.5] * k
                )
            )
            assert legacy.hex() == vectorized.hex()

    @pytest.mark.parametrize("task", sorted(RECTANGLE_TASKS))
    @pytest.mark.parametrize(
        "k,seed", [(k, seed) for k in (2, 3, 4, 5, 6) for seed in range(4)]
    )
    def test_skewed_product_marginals(
        self, reference_and_engine, k, seed, task
    ):
        marginals = skewed_marginals(k, seed)
        legacy, vectorized = reference_and_engine(
            lambda: minimum_zero_error_external_ic(
                k, RECTANGLE_TASKS[task], marginals
            )
        )
        assert legacy.hex() == vectorized.hex()

    def test_cell_cap_bounds_the_dense_dp(self):
        # 3**k * z_count above the cap must refuse the dense table.
        assert kernels.minimum_entropy_supported(3, 3)
        assert not kernels.minimum_entropy_supported(20, 1)


# ----------------------------------------------------------------------
# Bit-identity: the E1 bigint simulators.
# ----------------------------------------------------------------------
@numpy_required
class TestDisjointnessSimulators:
    SIMULATORS = (
        ("optimal", kernels.simulate_optimal_disjointness),
        ("naive", kernels.simulate_naive_disjointness),
        ("trivial", kernels.simulate_trivial_disjointness),
    )
    PROTOCOLS = {
        "optimal": "OptimalDisjointnessProtocol",
        "naive": "NaiveDisjointnessProtocol",
        "trivial": "TrivialDisjointnessProtocol",
    }

    @pytest.mark.parametrize("point", ((64, 4), (256, 4), (256, 8)))
    def test_measure_point_identical(self, reference_and_engine, point):
        n, k = point
        legacy, vectorized = reference_and_engine(lambda: measure_point(n, k))
        assert legacy == vectorized

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        from repro.protocols import (
            NaiveDisjointnessProtocol,
            OptimalDisjointnessProtocol,
            TrivialDisjointnessProtocol,
        )

        classes = {
            "optimal": OptimalDisjointnessProtocol,
            "naive": NaiveDisjointnessProtocol,
            "trivial": TrivialDisjointnessProtocol,
        }
        rng = random.Random(seed)
        n = rng.choice((16, 48, 96))
        k = rng.choice((3, 4, 6))
        inputs = random_instance(n, k, rng)
        task = disjointness_task(n, k)
        for name, simulate in self.SIMULATORS:
            bits, output = simulate(n, k, inputs)
            outcome = run_protocol(classes[name](n, k), inputs)
            assert output == outcome.output == task.evaluate(inputs)
            assert bits == outcome.bits_communicated

    @staticmethod
    def reference_lowest_bits(mask, m):
        """The clear-one-bit-per-step loop ``_lowest_bits`` replaced."""
        out = 0
        for _ in range(m):
            low = mask & -mask
            out |= low
            mask ^= low
        return out

    @pytest.mark.parametrize("n", (1, 7, 64, 1024, 1025, 5000))
    def test_lowest_bits_matches_the_bit_clearing_loop(self, n):
        rng = random.Random(n)
        top = 1 << (n - 1)
        dense = rng.getrandbits(n) | top
        # E1's batches mostly end near the top of a sparse mask.
        sparse = (
            rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        ) | top
        for mask in (dense, sparse):
            count = bin(mask).count("1")
            for m in {0, 1, count, rng.randint(1, count)}:
                assert kernels._lowest_bits(mask, m) == (
                    self.reference_lowest_bits(mask, m)
                )
        with pytest.raises(ValueError, match="fewer set bits"):
            kernels._lowest_bits(dense, bin(dense).count("1") + 1)

    def test_partition_worst_case(self):
        from repro.protocols import OptimalDisjointnessProtocol

        n, k = 128, 8
        inputs = partition_instance(n, k)
        bits, output = kernels.simulate_optimal_disjointness(n, k, inputs)
        outcome = run_protocol(OptimalDisjointnessProtocol(n, k), inputs)
        assert (bits, output) == (outcome.bits_communicated, outcome.output)


# ----------------------------------------------------------------------
# Telemetry: the kernel_vectorized_calls counter records the array paths.
# ----------------------------------------------------------------------
@numpy_required
class TestVectorizedCallCounter:
    def teardown_method(self):
        disable_metrics()

    def test_vectorized_ops_are_counted(self):
        enable_metrics(reset=True)
        protocol = SequentialAndProtocol(3)
        scenarios = scenario_distribution(
            list(itertools.product((0, 1), repeat=3))
        )
        joint_transcript_distribution(protocol, scenarios)
        kernels.simulate_trivial_disjointness(8, 2, (3, 5))
        counter = REGISTRY.counter("kernel_vectorized_calls")
        assert counter.value(op="tree_walk") >= 1
        assert counter.value(op="e1_trivial") == 1

    def test_legacy_runs_emit_nothing(self):
        # Supports below _VECTOR_MIN_SUPPORT take the scalar folds,
        # which are not array-path invocations.
        joint = random_joint(0, (3, 4, 3))
        assert joint._support_size() < kernels._VECTOR_MIN_SUPPORT
        enable_metrics(reset=True)
        mutual_information(joint, "a", "b")
        conditional_mutual_information(joint, "a", "b", "c")
        assert REGISTRY.counter("kernel_vectorized_calls").total() == 0


# ----------------------------------------------------------------------
# Experiment-level identity: the references render the same tables.
# ----------------------------------------------------------------------
@numpy_required
class TestExperimentKernelIdentity:
    def test_e1_table_identical(self, reference_and_engine):
        from repro.experiments.e1_disjointness_scaling import run

        legacy, vectorized = reference_and_engine(
            lambda: run(grid=[(64, 4), (256, 8)]).render()
        )
        assert legacy == vectorized

    def test_e14_table_identical(self, reference_and_engine):
        from repro.experiments.e14_optimal_information import run

        legacy, vectorized = reference_and_engine(
            lambda: run(ks=[2, 3, 4]).render()
        )
        assert legacy == vectorized
