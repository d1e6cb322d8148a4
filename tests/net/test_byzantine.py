"""The byzantine acceptance battery: Bracha reliable broadcast beneath
the blackboard, pinned at the ``k > 3f`` threshold from both sides.

Above the threshold the headline invariant holds with no exceptions:
byzantine-free runs and runs with up to ``f`` actively lying parties
are **bit-identical** to ``run_protocol`` — transcript, output, and
``bits_communicated`` — for every registry protocol and for generated
protocols, under every seeded byzantine fault class (equivocation,
forgery, replay, silence, and all of them at once).  At ``k = 3f`` the
same machinery must fail *loudly*: a typed
:class:`~repro.net.errors.ByzantineQuorumError` naming the violated
threshold, never a hang (the autouse SIGALRM deadline in ``conftest.py``
enforces "never" literally) and never a silently divergent board.

This battery is the contract; no fuzz oracle repeats it.
"""

import random

import pytest

from repro.check import generate_case
from repro.core.runner import run_protocol
from repro.net import (
    ByzantineConfig,
    ByzantineFaultPlan,
    ByzantineQuorumError,
    RetryPolicy,
    byzantine_fault_plans,
    run_networked,
)
from repro.obs import (
    REGISTRY,
    RecordingTracer,
    disable_metrics,
    enable_metrics,
    using_tracer,
)
from repro.protocols import (
    ALL_PROTOCOLS,
    NoisySequentialAndProtocol,
    ProtocolCase,
    SequentialAndProtocol,
)

CASE_IDS = [case.name for case in ALL_PROTOCOLS]
SEED = 4242
MASTER_SEED = 101
NUM_GENERATED = 25
GENERATED = [generate_case(MASTER_SEED, i) for i in range(NUM_GENERATED)]

#: Stall-mode tests burn the whole retry budget before the typed error
#: surfaces; the default policy's budget is sized for real recovery, so
#: shrink it (the same knob ``tests/net/test_faults.py`` uses).
FAST_RETRY = RetryPolicy(timeout=4.0, backoff=1.2, max_retries=4, max_timeout=16.0)


def _representative_inputs(case: ProtocolCase, count: int):
    tuples = case.input_tuples()
    if len(tuples) <= count:
        return tuples
    stride = max(1, len(tuples) // count)
    picked = tuples[::stride][:count]
    if tuples[-1] not in picked:
        picked[-1] = tuples[-1]
    return picked


def _max_f(num_players: int) -> int:
    """Largest fault budget satisfying k > 3f."""
    return (num_players - 1) // 3


# ----------------------------------------------------------------------
# Above the threshold: bit-identity, with and without active liars.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", ALL_PROTOCOLS, ids=CASE_IDS)
def test_byzantine_free_bit_identity_every_registry_protocol(case):
    """With nobody lying, the Bracha layer is pure overhead: for every
    tolerable fault budget f (k > 3f), the run is the same ProtocolRun
    the in-memory runner produces."""
    k = case.build().num_players
    for f in range(_max_f(k) + 1):
        for inputs in _representative_inputs(case, 2):
            reference = run_protocol(
                case.build(), inputs, rng=random.Random(SEED)
            )
            networked = run_networked(
                case.build(), inputs, seed=SEED, byzantine=f
            )
            assert networked == reference, (case.name, f, inputs)


@pytest.mark.parametrize(
    "case", GENERATED, ids=[f"case{c.index}" for c in GENERATED]
)
def test_byzantine_free_bit_identity_generated(case):
    """Same invariant on arbitrary generated protocols (mixed point-mass
    and sampled messages — the coin-replication stress traffic)."""
    seed = case.spec.seed
    f = _max_f(case.protocol.num_players)
    for inputs in case.input_tuples[:2]:
        reference = run_protocol(
            case.protocol, inputs, rng=random.Random(seed)
        )
        networked = run_networked(
            case.protocol, inputs, seed=seed, byzantine=f
        )
        assert networked == reference, inputs


@pytest.mark.parametrize("party", [0, 3], ids=["party0", "party3"])
@pytest.mark.parametrize(
    "plan_name", sorted(byzantine_fault_plans(0)), ids=str
)
def test_every_byzantine_class_absorbed_at_k4_f1(plan_name, party):
    """k=4, f=1: each byzantine class alone (and all at once) leaves the
    committed board bit-identical, whichever party is compromised —
    including the first speaker, whose own traffic crosses the
    adversary."""
    plan = byzantine_fault_plans(SEED, party=party)[plan_name]
    protocol = SequentialAndProtocol(4)
    inputs = (1, 1, 1, 1)
    reference = run_protocol(protocol, inputs, rng=random.Random(SEED))
    networked = run_networked(
        protocol,
        inputs,
        seed=SEED,
        byzantine=ByzantineConfig(f=1, plan=plan),
    )
    assert networked == reference, (plan_name, party)


def test_byzantine_plan_with_coin_draws():
    """Vote identity is (payload, coin draws): a noisy protocol under
    the all-classes plan still commits the exact in-memory board."""
    protocol = NoisySequentialAndProtocol(4, 0.25)
    inputs = (1, 1, 1, 1)
    for seed in (1, 8, 21):
        plan = byzantine_fault_plans(seed, party=2)["byz-chaos"]
        reference = run_protocol(protocol, inputs, rng=random.Random(seed))
        networked = run_networked(
            protocol,
            inputs,
            seed=seed,
            byzantine=ByzantineConfig(f=1, plan=plan),
        )
        assert networked == reference, seed


def test_two_simultaneous_liars_at_k7_f2():
    """k=7 > 3f=6: two compromised parties lying in every class at once
    are still absorbed bit-identically."""
    protocol = SequentialAndProtocol(7)
    inputs = (1,) * 7
    plan = ByzantineFaultPlan(
        seed=SEED,
        parties=(2, 5),
        equivocate_rate=0.5,
        forge_rate=0.4,
        replay_rate=0.5,
    )
    reference = run_protocol(protocol, inputs, rng=random.Random(SEED))
    networked = run_networked(
        protocol, inputs, seed=SEED, byzantine=ByzantineConfig(f=2, plan=plan)
    )
    assert networked == reference


def test_two_silent_parties_at_k7_f2():
    protocol = SequentialAndProtocol(7)
    inputs = (1,) * 7
    plan = ByzantineFaultPlan(seed=SEED, silent=(3, 6))
    reference = run_protocol(protocol, inputs, rng=random.Random(SEED))
    networked = run_networked(
        protocol, inputs, seed=SEED, byzantine=ByzantineConfig(f=2, plan=plan)
    )
    assert networked == reference


def test_tcp_transport_runs_the_bracha_layer():
    """The byzantine layer is transport-independent: over real sockets
    (fault injection disallowed there) the honest run is bit-identical."""
    protocol = SequentialAndProtocol(4)
    inputs = (1, 1, 1, 1)
    reference = run_protocol(protocol, inputs, rng=random.Random(SEED))
    networked = run_networked(
        protocol, inputs, seed=SEED, transport="tcp", byzantine=1
    )
    assert networked == reference


def test_tcp_rejects_byzantine_fault_plans():
    plan = byzantine_fault_plans(SEED)["equivocate"]
    with pytest.raises(ValueError, match="loopback-only"):
        run_networked(
            SequentialAndProtocol(4),
            (1, 1, 1, 1),
            seed=SEED,
            transport="tcp",
            byzantine=ByzantineConfig(f=1, plan=plan),
        )


# ----------------------------------------------------------------------
# At and below the threshold: typed failures, never hangs or divergence.
# ----------------------------------------------------------------------


class TestThresholdViolations:
    def test_silent_party_at_k3_f1_starves_the_quorum(self):
        """k = 3f: one silent party makes the echo quorum unreachable;
        the retry budget turns the stall into ByzantineQuorumError."""
        with pytest.raises(ByzantineQuorumError, match="k > 3f"):
            run_networked(
                SequentialAndProtocol(3),
                (1, 1, 1),
                seed=SEED,
                retry=FAST_RETRY,
                byzantine=ByzantineConfig(
                    f=1, plan=ByzantineFaultPlan(seed=SEED, silent=(1,))
                ),
            )

    def test_split_equivocation_at_k3_f1_is_structurally_detected(self):
        """k = 3f: a split vote leaves every value short of the echo
        quorum with all votes in — detected deterministically, without
        waiting out the retry budget."""
        plan = ByzantineFaultPlan(
            seed=SEED,
            parties=(1,),
            equivocate_rate=1.0,
            equivocation="split",
        )
        with pytest.raises(ByzantineQuorumError, match="echo votes"):
            run_networked(
                SequentialAndProtocol(3),
                (1, 1, 1),
                seed=SEED,
                retry=FAST_RETRY,
                byzantine=ByzantineConfig(f=1, plan=plan),
            )

    def test_two_silent_parties_at_k6_f2(self):
        with pytest.raises(ByzantineQuorumError, match="k > 3f"):
            run_networked(
                SequentialAndProtocol(6),
                (1,) * 6,
                seed=SEED,
                retry=FAST_RETRY,
                byzantine=ByzantineConfig(
                    f=2, plan=ByzantineFaultPlan(seed=SEED, silent=(4, 5))
                ),
            )

    def test_failure_is_typed_all_the_way_up(self):
        """ByzantineQuorumError is a NetError: callers that already
        handle typed network failures catch threshold violations too."""
        from repro.net import NetError

        assert issubclass(ByzantineQuorumError, NetError)


class TestConfigValidation:
    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            ByzantineConfig(f=-1)

    def test_ready_quorum_unreachable_rejected(self):
        # k=2, f=1: 2f+1 = 3 > k — even all-honest READYs cannot reach
        # the quorum, so the configuration is rejected up front.
        with pytest.raises(ValueError, match="2f"):
            run_networked(
                SequentialAndProtocol(2), (1, 1), seed=SEED, byzantine=1
            )

    def test_more_compromised_parties_than_f_rejected(self):
        plan = ByzantineFaultPlan(seed=SEED, parties=(2, 3))
        with pytest.raises(ValueError):
            run_networked(
                SequentialAndProtocol(4),
                (1, 1, 1, 1),
                seed=SEED,
                byzantine=ByzantineConfig(f=1, plan=plan),
            )

    def test_compromised_party_out_of_range_rejected(self):
        plan = ByzantineFaultPlan(seed=SEED, parties=(9,))
        with pytest.raises(ValueError):
            run_networked(
                SequentialAndProtocol(4),
                (1, 1, 1, 1),
                seed=SEED,
                byzantine=ByzantineConfig(f=1, plan=plan),
            )


# ----------------------------------------------------------------------
# Observability: counters and spans of the byzantine layer.
# ----------------------------------------------------------------------


class TestByzantineObservability:
    def setup_method(self):
        enable_metrics(reset=True)

    def teardown_method(self):
        disable_metrics()

    def _run(self, plan=None, f=1):
        return run_networked(
            SequentialAndProtocol(4),
            (1, 1, 1, 1),
            seed=SEED,
            byzantine=ByzantineConfig(f=f, plan=plan),
        )

    def test_vote_and_delivery_counters(self):
        run = self._run()
        echoes = REGISTRY.counter("net_byz_echoes").total()
        readies = REGISTRY.counter("net_byz_readies").total()
        deliveries = REGISTRY.counter("net_byz_deliveries").total()
        # Every party delivers every committed round.
        assert deliveries == 4 * len(run.transcript)
        assert echoes >= deliveries
        assert readies >= deliveries

    def test_equivocation_detection_counter(self):
        # "double" sends the conflicting copy alongside the honest one,
        # so the target relay sees two votes from one voter and counts
        # the equivocation.
        plan = ByzantineFaultPlan(
            seed=SEED,
            parties=(2,),
            equivocate_rate=1.0,
            equivocation="double",
        )
        self._run(plan=plan)
        assert (
            REGISTRY.counter("net_byz_equivocations_detected").total() > 0
        )
        assert (
            REGISTRY.counter("net_faults_injected").value(
                fault="byz-equivocate", transport="loopback"
            )
            > 0
        )

    def test_forged_send_rejection_counter(self):
        plan = ByzantineFaultPlan(seed=SEED, parties=(2,), forge_rate=1.0)
        self._run(plan=plan)
        assert REGISTRY.counter("net_byz_forged_rejected").total() > 0

    def test_replay_rejection_counter(self):
        plan = ByzantineFaultPlan(seed=SEED, parties=(2,), replay_rate=1.0)
        self._run(plan=plan)
        assert REGISTRY.counter("net_byz_replays_ignored").total() > 0

    def test_byz_deliver_spans(self):
        tracer = RecordingTracer()
        with using_tracer(tracer):
            run = self._run()
        delivers = [
            e for e in tracer.named("byz_deliver") if e.kind == "begin"
        ]
        assert len(delivers) == 4 * len(run.transcript)
        sample = delivers[0].fields
        assert sample["echoes"] >= 3  # the k=4, f=1 echo quorum
        assert sample["readies"] >= 3  # the 2f+1 ready quorum
