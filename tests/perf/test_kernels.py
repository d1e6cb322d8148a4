"""repro.perf.kernels: the vectorized exact engine's contract.

Two things are pinned here.  First, the switch semantics: kernel
selection is explicit, validated, scoped, and fails fast when numpy is
missing.  Second — the property everything else rests on — *bit
identity*: every quantity the vectorized kernel computes (tree walks,
entropies, divergences, mutual informations, the Lemma 3 class
probabilities, the Lemma 2 divergence sum, the E14 rectangle DP, the E1
protocol simulators) must equal the legacy implementation exactly, float
for float, outcome order included, on every workload the legacy path
completes.
"""

import itertools
import math
import random

import pytest

from repro.check.generator import GeneratedCoordinatorProtocol, generate_case
from repro.core import (
    batched_joint_transcript_distribution,
    conditional_information_cost,
    external_information_cost,
    internal_information_cost,
    run_protocol,
)
from repro.core import tree
from repro.core.model import TopologyViolation
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
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
    TwoPartyDisjointnessProtocol,
)
from repro.topology import (
    COORDINATOR,
    CoordinatorAndProtocol,
    CoordinatorDisjointnessProtocol,
    RingTokenAndProtocol,
    ring_medium,
)

numpy_required = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)


# ----------------------------------------------------------------------
# Switch semantics.
# ----------------------------------------------------------------------
class TestKernelSwitch:
    def teardown_method(self):
        kernels.set_kernel(None)

    def test_default_resolution_tracks_numpy(self):
        kernels.set_kernel(None)
        expected = "vectorized" if kernels.numpy_available() else "legacy"
        assert kernels.get_kernel() == expected

    def test_explicit_legacy_wins(self):
        kernels.set_kernel("legacy")
        assert kernels.get_kernel() == "legacy"
        assert not kernels.use_vectorized()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.set_kernel("simd")
        with pytest.raises(ValueError, match="unknown kernel"):
            with kernels.using_kernel("simd"):
                pass  # pragma: no cover - never entered

    def test_using_kernel_restores_on_exit(self):
        kernels.set_kernel("legacy")
        with kernels.using_kernel("legacy"):
            assert kernels.get_kernel() == "legacy"
        assert kernels.get_kernel() == "legacy"
        kernels.set_kernel(None)
        with kernels.using_kernel("legacy"):
            assert kernels.get_kernel() == "legacy"
        assert kernels.get_kernel() == (
            "vectorized" if kernels.numpy_available() else "legacy"
        )

    def test_using_kernel_restores_after_exception(self):
        kernels.set_kernel(None)
        with pytest.raises(RuntimeError):
            with kernels.using_kernel("legacy"):
                raise RuntimeError("boom")
        assert kernels.get_kernel() != "legacy" or not (
            kernels.numpy_available()
        )

    def test_none_is_a_no_op(self):
        kernels.set_kernel("legacy")
        with kernels.using_kernel(None):
            assert kernels.get_kernel() == "legacy"
        assert kernels.get_kernel() == "legacy"

    def test_missing_numpy_fails_at_selection_time(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy", None)
        assert not kernels.numpy_available()
        assert kernels.get_kernel() == "legacy"
        assert not kernels.use_vectorized()
        with pytest.raises(ImportError, match="numpy>=1.21"):
            kernels.require_numpy()
        with pytest.raises(ImportError, match="'legacy' kernel"):
            kernels.set_kernel("vectorized")

    @numpy_required
    def test_missing_numpy_disables_fast_paths(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy", None)
        monkeypatch.setattr(kernels, "_VECTOR_MIN_SUPPORT", 0)
        dist = DiscreteDistribution({"a": 0.25, "b": 0.75})
        assert kernels.entropy_fast(dict(dist.items())) is None
        assert not kernels.minimum_entropy_supported(3, 3)


# ----------------------------------------------------------------------
# Bit-identity: tree walks over the whole protocol suite.
# ----------------------------------------------------------------------
def scenario_distribution(input_tuples):
    return DiscreteDistribution.uniform([(t,) for t in input_tuples])


def both_kernels(compute):
    """Evaluate ``compute()`` under each kernel, returning the pair."""
    with kernels.using_kernel("legacy"):
        legacy = compute()
    with kernels.using_kernel("vectorized"):
        vectorized = compute()
    return legacy, vectorized


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
        legacy, vectorized = both_kernels(
            lambda: batched_joint_transcript_distribution(
                protocol, scenarios, names=("inputs",)
            )
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
        legacy, vectorized = both_kernels(
            lambda: batched_joint_transcript_distribution(
                protocol, scenarios, names=("inputs",), medium=medium
            )
        )
        assert_joint_identical(legacy, vectorized)

    @pytest.mark.parametrize("kernel", kernels.KERNELS)
    def test_off_medium_edge_rejected(self, kernel):
        # The ring protocol writes on Link(0, 1), which the coordinator
        # medium does not have.
        scenarios = scenario_distribution(
            list(itertools.product((0, 1), repeat=3))
        )
        with kernels.using_kernel(kernel):
            with pytest.raises(TopologyViolation, match="is not a link"):
                batched_joint_transcript_distribution(
                    RingTokenAndProtocol(3), scenarios, medium=COORDINATOR
                )

    @pytest.mark.parametrize("index", range(25))
    def test_generated_protocols(self, index):
        case = generate_case(2026, index)
        scenarios = case.input_dist.map(lambda x: (x,))
        legacy, vectorized = both_kernels(
            lambda: batched_joint_transcript_distribution(
                case.protocol, scenarios, names=("inputs",)
            )
        )
        assert_joint_identical(legacy, vectorized)

    def test_weighted_aux_scenarios(self):
        protocol = NoisySequentialAndProtocol(3, 0.125)
        mu = and_hard_distribution(3)
        legacy, vectorized = both_kernels(
            lambda: batched_joint_transcript_distribution(
                protocol, mu, names=("inputs", "aux")
            )
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
        legacy, vectorized = both_kernels(
            lambda: batched_joint_transcript_distribution(
                protocol, mu, names=("inputs", "aux")
            )
        )
        assert_joint_identical(legacy, vectorized)

    @pytest.mark.parametrize("lineage_bits", [None, 4])
    def test_branching_levels(self, lineage_bits, monkeypatch):
        # Every node forks into both messages from two blocks, so each
        # child is fed by several segments; with 4 lineage bits the
        # gather also carries the frozen spill columns.  The leaf tables
        # are compared directly: the full joint law has 2^20 rows.
        if lineage_bits is not None:
            monkeypatch.setattr(kernels, "_LINEAGE_BITS", lineage_bits)
        protocol = NoisySequentialAndProtocol(10, 0.125)
        inputs = list(itertools.product((0, 1), repeat=10))
        legacy = tree._legacy_walk_sorted_leaves(
            protocol, inputs, max_messages=16
        )
        leaves, *stats = kernels.tree_walk_sorted_leaves(
            protocol, inputs, max_messages=16
        )
        assert (leaves.rows(), *stats) == legacy

    def test_lineage_spill_path(self, monkeypatch):
        # Force the mixed-radix lineage codes to overflow into frozen
        # columns almost immediately; the walk must still match legacy.
        monkeypatch.setattr(kernels, "_LINEAGE_BITS", 4)
        case = generate_case(2026, 3)
        scenarios = case.input_dist.map(lambda x: (x,))
        legacy, vectorized = both_kernels(
            lambda: batched_joint_transcript_distribution(
                case.protocol, scenarios, names=("inputs",)
            )
        )
        assert_joint_identical(legacy, vectorized)


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
        rng = random.Random(seed)
        probs = {i: rng.random() + 1e-3 for i in range(40)}
        dist = DiscreteDistribution(probs, normalize=True)
        legacy, vectorized = both_kernels(dist.entropy)
        assert legacy == vectorized

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
        legacy, vectorized = both_kernels(
            lambda: kl_divergence(posterior, prior)
        )
        assert legacy == vectorized

    @pytest.mark.parametrize("seed", range(5))
    def test_mutual_information(self, seed):
        joint = random_joint(seed, (4, 5))
        legacy, vectorized = both_kernels(
            lambda: mutual_information(joint, "a", "b")
        )
        assert legacy == vectorized

    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_mutual_information(self, seed):
        joint = random_joint(seed, (3, 4, 3))
        legacy, vectorized = both_kernels(
            lambda: conditional_mutual_information(joint, "a", "b", "c")
        )
        assert legacy == vectorized

    def test_information_costs(self):
        protocol = NoisySequentialAndProtocol(3, 0.25)
        mu = and_hard_distribution(3)
        legacy, vectorized = both_kernels(
            lambda: conditional_information_cost(protocol, mu)
        )
        assert legacy == vectorized
        uniform = DiscreteDistribution.uniform(
            list(itertools.product((0, 1), repeat=3))
        )
        legacy, vectorized = both_kernels(
            lambda: external_information_cost(protocol, uniform)
        )
        assert legacy == vectorized

    def test_internal_information_cost(self):
        protocol = TwoPartyDisjointnessProtocol(2)
        uniform = DiscreteDistribution.uniform(
            list(itertools.product(range(4), repeat=2))
        )
        legacy, vectorized = both_kernels(
            lambda: internal_information_cost(protocol, uniform)
        )
        assert legacy == vectorized

    def test_per_player_divergence_sum(self):
        protocol = NoisySequentialAndProtocol(3, 0.125)
        mu = and_hard_distribution(3)
        legacy, vectorized = both_kernels(
            lambda: per_player_divergence_sum(
                batched_joint_transcript_distribution(
                    protocol, mu, names=("inputs", "aux")
                ),
                3,
            )
        )
        assert legacy == vectorized

    def test_lemma3_transcript_classification(self):
        legacy, vectorized = both_kernels(
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
        assert separates([p * math.log2(p) for _o, p in dist.items()])
        legacy, vectorized = both_kernels(
            lambda: DiscreteDistribution(dist.as_dict()).entropy()
        )
        assert legacy == vectorized

    def test_marginal_normalizer(self):
        joint = random_joint(3, (12, 6))
        acc = {}
        for (a, _b), p in joint.items():
            acc[a] = acc.get(a, 0.0) + p
        assert separates(list(acc.values()))
        legacy, vectorized = both_kernels(
            lambda: mutual_information(
                JointDistribution(dict(joint.items()), names=("a", "b")),
                "a",
                "b",
            )
        )
        assert legacy == vectorized

    def test_conditional_slice_normalizer_and_mass(self):
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
        legacy, vectorized = both_kernels(
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
    def test_minimum_zero_error_cic(self, k):
        legacy, vectorized = both_kernels(
            lambda: minimum_zero_error_cic(k)
        )
        assert legacy.hex() == vectorized.hex()

    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_minimum_zero_error_external_ic(self, k):
        for evaluate in RECTANGLE_TASKS.values():
            legacy, vectorized = both_kernels(
                lambda: minimum_zero_error_external_ic(
                    k, evaluate, [0.5] * k
                )
            )
            assert legacy.hex() == vectorized.hex()

    @pytest.mark.parametrize("task", sorted(RECTANGLE_TASKS))
    @pytest.mark.parametrize(
        "k,seed", [(k, seed) for k in (2, 3, 4, 5, 6) for seed in range(4)]
    )
    def test_skewed_product_marginals(self, k, seed, task):
        marginals = skewed_marginals(k, seed)
        legacy, vectorized = both_kernels(
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
    def test_measure_point_identical(self, point):
        n, k = point
        legacy, vectorized = both_kernels(lambda: measure_point(n, k))
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
# Telemetry: the kernel_vectorized_calls counter.
# ----------------------------------------------------------------------
@numpy_required
class TestVectorizedCallCounter:
    def teardown_method(self):
        disable_metrics()
        kernels.set_kernel(None)

    def test_vectorized_ops_are_counted(self):
        enable_metrics(reset=True)
        protocol = SequentialAndProtocol(3)
        scenarios = scenario_distribution(
            list(itertools.product((0, 1), repeat=3))
        )
        with kernels.using_kernel("vectorized"):
            batched_joint_transcript_distribution(protocol, scenarios)
            kernels.simulate_trivial_disjointness(8, 2, (3, 5))
        counter = REGISTRY.counter("kernel_vectorized_calls")
        assert counter.value(op="tree_walk") >= 1
        assert counter.value(op="e1_trivial") == 1

    def test_legacy_runs_emit_nothing(self):
        enable_metrics(reset=True)
        protocol = SequentialAndProtocol(3)
        scenarios = scenario_distribution(
            list(itertools.product((0, 1), repeat=3))
        )
        with kernels.using_kernel("legacy"):
            batched_joint_transcript_distribution(protocol, scenarios)
        assert REGISTRY.counter("kernel_vectorized_calls").total() == 0


# ----------------------------------------------------------------------
# Experiment-level identity: --kernel must never change a table.
# ----------------------------------------------------------------------
@numpy_required
class TestExperimentKernelIdentity:
    def test_e1_table_identical(self):
        from repro.experiments.e1_disjointness_scaling import run

        legacy = run(grid=[(64, 4), (256, 8)], kernel="legacy")
        vectorized = run(grid=[(64, 4), (256, 8)], kernel="vectorized")
        assert legacy.render() == vectorized.render()

    def test_e14_table_identical(self):
        from repro.experiments.e14_optimal_information import run

        legacy = run(ks=[2, 3, 4], kernel="legacy")
        vectorized = run(ks=[2, 3, 4], kernel="vectorized")
        assert legacy.render() == vectorized.render()

    def test_unknown_kernel_rejected(self):
        from repro.experiments.e1_disjointness_scaling import run

        with pytest.raises(ValueError, match="unknown kernel"):
            run(grid=[(64, 4)], kernel="simd")
