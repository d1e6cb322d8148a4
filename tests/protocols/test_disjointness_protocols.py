"""Correctness and communication tests for the three disjointness
protocols (trivial, naive intro protocol, optimal Section 5 protocol)."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import disjointness_task, run_protocol, set_to_mask
from repro.protocols import (
    NaiveDisjointnessProtocol,
    OptimalDisjointnessProtocol,
    TrivialDisjointnessProtocol,
)

ALL_PROTOCOLS = [
    TrivialDisjointnessProtocol,
    NaiveDisjointnessProtocol,
    OptimalDisjointnessProtocol,
]


def partition_input(n, k):
    """Disjoint worst-case-ish input: player i's zeros are the residue
    class i mod k (so every coordinate must eventually reach the board)."""
    masks = []
    full = (1 << n) - 1
    for i in range(k):
        zero_mask = 0
        for j in range(i, n, k):
            zero_mask |= 1 << j
        masks.append(full ^ zero_mask)
    return tuple(masks)


class TestExhaustiveCorrectness:
    @pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS)
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 3),
                                     (3, 3), (4, 2)])
    def test_all_inputs(self, protocol_cls, n, k):
        task = disjointness_task(n, k)
        protocol = protocol_cls(n, k)
        for inputs in itertools.product(range(1 << n), repeat=k):
            run = run_protocol(protocol, inputs)
            assert run.output == task.evaluate(inputs), (
                f"{protocol_cls.__name__} wrong on n={n} k={k} {inputs}"
            )


class TestRandomizedCorrectness:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_random_instances_agree(self, data):
        n = data.draw(st.integers(1, 60))
        k = data.draw(st.integers(1, 8))
        full = (1 << n) - 1
        masks = tuple(
            data.draw(st.integers(0, full)) for _ in range(k)
        )
        task = disjointness_task(n, k)
        expected = task.evaluate(masks)
        for protocol_cls in ALL_PROTOCOLS:
            run = run_protocol(protocol_cls(n, k), masks)
            assert run.output == expected

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_planted_intersection_detected(self, data):
        """Inputs engineered to share exactly one common coordinate."""
        n = data.draw(st.integers(2, 40))
        k = data.draw(st.integers(2, 6))
        shared = data.draw(st.integers(0, n - 1))
        full = (1 << n) - 1
        masks = []
        for _ in range(k):
            mask = data.draw(st.integers(0, full)) | (1 << shared)
            masks.append(mask)
        run = run_protocol(OptimalDisjointnessProtocol(n, k), tuple(masks))
        assert run.output == 0


class TestCommunicationBounds:
    def test_trivial_is_exactly_nk(self):
        for n, k in [(5, 2), (16, 4), (33, 3)]:
            protocol = TrivialDisjointnessProtocol(n, k)
            rng = random.Random(0)
            masks = tuple(rng.randrange(1 << n) for _ in range(k))
            assert run_protocol(protocol, masks).bits_communicated == n * k

    def test_naive_upper_bound(self):
        """Naive protocol: at most n ceil(log n) index bits + framing."""
        n, k = 256, 8
        protocol = NaiveDisjointnessProtocol(n, k)
        run = run_protocol(protocol, partition_input(n, k))
        index_width = (n - 1).bit_length()
        # n coordinates once each, plus per-coordinate-batch headers and
        # per-player flags (Elias gamma of counts is o(n log n)).
        assert run.bits_communicated <= n * index_width + 4 * n + 2 * k

    def test_optimal_beats_naive_at_scale(self):
        """For small k and large n, n log k << n log n."""
        n, k = 2048, 4
        inputs = partition_input(n, k)
        optimal = run_protocol(OptimalDisjointnessProtocol(n, k), inputs)
        naive = run_protocol(NaiveDisjointnessProtocol(n, k), inputs)
        assert optimal.bits_communicated < naive.bits_communicated

    def test_optimal_upper_bound_shape(self):
        """Measured cost <= c1 * n * log2(e k) + c2 * k for moderate
        constants, on the all-coordinates-must-be-covered input."""
        for n, k in [(512, 4), (1024, 8), (2048, 16), (4096, 16)]:
            inputs = partition_input(n, k)
            run = run_protocol(OptimalDisjointnessProtocol(n, k), inputs)
            bound = 2.0 * n * math.log2(math.e * k) + 4.0 * k
            assert run.bits_communicated <= bound, (n, k, run.bits_communicated)
            assert run.output == 1

    def test_non_disjoint_can_halt_fast(self):
        """All players hold the full set: nobody has zeros, so the first
        cycle is all passes and the protocol stops after ~k bits."""
        n, k = 1024, 8
        full = (1 << n) - 1
        run = run_protocol(
            OptimalDisjointnessProtocol(n, k), tuple([full] * k)
        )
        assert run.output == 0
        assert run.bits_communicated == k  # k pass bits

    def test_empty_sets_endgame_single_turn(self):
        n, k = 8, 4  # n < k^2: the protocol starts in the endgame
        run = run_protocol(OptimalDisjointnessProtocol(n, k), tuple([0] * k))
        assert run.output == 1
        # Player 0 has all n zeros and writes everything in one turn.
        assert run.rounds == 1

    def test_empty_sets_batch_phase_one_cycle(self):
        n, k = 64, 4  # n >= k^2: batch phase, batches of n/k coordinates
        run = run_protocol(OptimalDisjointnessProtocol(n, k), tuple([0] * k))
        assert run.output == 1
        # Each player writes one batch of n/k = 16 coordinates; the board
        # is complete after a single cycle.
        assert run.rounds == k


class TestOptimalProtocolPhases:
    def test_endgame_entered_when_n_below_k_squared(self):
        protocol = OptimalDisjointnessProtocol(8, 3)  # 8 < 9
        assert protocol.initial_state().endgame is True

    def test_batch_phase_when_n_large(self):
        protocol = OptimalDisjointnessProtocol(100, 3)
        assert protocol.initial_state().endgame is False

    def test_invalid_input_mask_rejected(self):
        protocol = OptimalDisjointnessProtocol(4, 2)
        with pytest.raises(ValueError):
            run_protocol(protocol, (1 << 10, 0))

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            OptimalDisjointnessProtocol(0, 2)

    def test_deterministic_transcripts(self):
        """Two runs on the same input produce identical transcripts."""
        n, k = 200, 5
        rng = random.Random(1)
        masks = tuple(rng.randrange(1 << n) for _ in range(k))
        p = OptimalDisjointnessProtocol(n, k)
        assert (
            run_protocol(p, masks).transcript
            == run_protocol(p, masks).transcript
        )
