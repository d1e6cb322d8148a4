"""Tests for the streaming substrate and the disjointness reduction."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import BitReader, BitWriter
from repro.core import disjointness_task, run_protocol
from repro.streaming import (
    CappedFrequencyCounter,
    DistinctElementsBitmap,
    StreamingSimulationProtocol,
    run_stream,
    space_lower_bound,
)


class TestCappedFrequencyCounter:
    def test_counts_and_caps(self):
        algo = CappedFrequencyCounter(4, cap=2)
        run = run_stream(algo, [0, 1, 0, 0])
        assert run.final_state == (2, 1, 0, 0)  # item 0 capped at 2
        assert run.output == 1                   # reached the cap
        assert algo.max_frequency(run.final_state) == 2

    def test_no_item_reaches_cap(self):
        algo = CappedFrequencyCounter(4, cap=3)
        run = run_stream(algo, [0, 1, 2, 0])
        assert run.output == 0

    def test_space_is_n_log_cap(self):
        n, cap = 16, 5
        algo = CappedFrequencyCounter(n, cap)
        run = run_stream(algo, [3, 3, 3])
        assert run.max_state_bits == n * (cap).bit_length()

    def test_state_roundtrip(self):
        algo = CappedFrequencyCounter(5, cap=3)
        state = (0, 3, 1, 2, 0)
        reader = BitReader(algo.encode_state(state))
        assert algo.decode_state(reader) == state
        reader.expect_exhausted()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CappedFrequencyCounter(0, 1)
        with pytest.raises(ValueError):
            CappedFrequencyCounter(4, 0)

    def test_invalid_item(self):
        algo = CappedFrequencyCounter(4, 2)
        with pytest.raises(ValueError):
            run_stream(algo, [4])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, 4),
                st.lists(st.integers(0, n - 1), max_size=40),
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
            )
        )
    )
    def test_fold_equals_the_update_loop(self, data):
        n, cap, items, start = data
        algo = CappedFrequencyCounter(n, cap)
        state = tuple(min(c, cap) for c in start)
        expected = state
        for item in items:
            expected = algo.update(expected, item)
        assert algo.fold(state, iter(items)) == expected


def _per_counter_encode(state, width):
    writer = BitWriter()
    for counter in state:
        writer.write_uint(counter, width)
    return writer.getvalue()


class TestCappedFrequencyCodec:
    """The state codec against one ``write_uint`` / ``read_uint`` per
    counter: same bits, same errors, same reader position."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.integers(1, 9),
                st.lists(st.integers(0, 9), min_size=n, max_size=n),
            )
        )
    )
    def test_matches_the_per_counter_codec(self, data):
        cap, counters = data
        algo = CappedFrequencyCounter(len(counters), cap)
        state = tuple(min(c, cap) for c in counters)
        bits = algo.encode_state(state)
        assert bits == _per_counter_encode(state, algo._width)
        reader = BitReader(bits + "1")
        assert algo.decode_state(reader) == state
        assert reader.remaining == 1

    @pytest.mark.parametrize("state", [(0, 4, 1), (0, -1, 9), (8, 0, 0)])
    def test_out_of_range_counter_keeps_the_writer_error(self, state):
        algo = CappedFrequencyCounter(3, cap=3)
        with pytest.raises(ValueError) as expected:
            _per_counter_encode(state, 2)
        with pytest.raises(ValueError) as got:
            algo.encode_state(state)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("length", [0, 1, 2, 5, 7])
    def test_short_input_keeps_the_reader_error(self, length):
        algo = CappedFrequencyCounter(4, cap=3)
        reader, expected = BitReader("1" * length), BitReader("1" * length)
        with pytest.raises(EOFError) as want:
            for _ in range(4):
                expected.read_uint(2)
        with pytest.raises(EOFError) as got:
            algo.decode_state(reader)
        assert str(got.value) == str(want.value)
        assert reader.position == expected.position

class TestDistinctElementsBitmap:
    @given(st.lists(st.integers(0, 9), max_size=40))
    def test_counts_distinct(self, items):
        algo = DistinctElementsBitmap(10)
        run = run_stream(algo, items)
        assert run.output == len(set(items))

    def test_covers_universe(self):
        algo = DistinctElementsBitmap(3)
        run = run_stream(algo, [0, 2, 1])
        assert algo.covers_universe(run.final_state)

    def test_base_fold_loops_update(self):
        algo = DistinctElementsBitmap(6)
        assert algo.fold(algo.initial_state(), [5, 0, 5, 2]) == 0b100101

    def test_space_is_n(self):
        algo = DistinctElementsBitmap(12)
        run = run_stream(algo, [0])
        assert run.max_state_bits == 12

    def test_state_roundtrip(self):
        algo = DistinctElementsBitmap(6)
        reader = BitReader(algo.encode_state(0b101001))
        assert algo.decode_state(reader) == 0b101001


class TestReduction:
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_protocol_solves_disjointness_exhaustively(self, n, k):
        algo = CappedFrequencyCounter(n, cap=k)
        protocol = StreamingSimulationProtocol(algo, k)
        task = disjointness_task(n, k)
        for inputs in itertools.product(range(1 << n), repeat=k):
            run = run_protocol(protocol, inputs)
            assert run.output == task.evaluate(inputs), inputs

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_random_instances(self, data):
        n = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(2, 6))
        masks = tuple(
            data.draw(st.integers(0, (1 << n) - 1)) for _ in range(k)
        )
        algo = CappedFrequencyCounter(n, cap=k)
        protocol = StreamingSimulationProtocol(algo, k)
        task = disjointness_task(n, k)
        assert run_protocol(protocol, masks).output == task.evaluate(masks)

    def test_communication_is_k_minus_1_states_plus_1(self):
        n, k = 10, 4
        algo = CappedFrequencyCounter(n, cap=k)
        protocol = StreamingSimulationProtocol(algo, k)
        rng = random.Random(0)
        masks = tuple(rng.randrange(1 << n) for _ in range(k))
        run = run_protocol(protocol, masks)
        state_bits = n * (k).bit_length()
        assert run.bits_communicated == (k - 1) * state_bits + 1

    def test_space_lower_bound_formula(self):
        n, k = 100, 10
        bound = space_lower_bound(n, k, constant=0.25)
        expected = (0.25 * (n * math.log2(k) + k) - 1) / (k - 1)
        assert bound == pytest.approx(expected)

    def test_space_lower_bound_validation(self):
        with pytest.raises(ValueError):
            space_lower_bound(10, 1)

    def test_exact_algorithm_meets_the_bound(self):
        """The executable theorem: the exact algorithm's space must
        (and does) exceed the communication-implied lower bound."""
        for n, k in [(64, 4), (256, 8), (1024, 16)]:
            algo = CappedFrequencyCounter(n, cap=k)
            state_bits = n * (k).bit_length()
            assert state_bits >= space_lower_bound(n, k)

    def test_model_discipline(self):
        from repro.core import validate_protocol

        n, k = 2, 3
        algo = CappedFrequencyCounter(n, cap=k)
        protocol = StreamingSimulationProtocol(algo, k)
        inputs = list(itertools.product(range(1 << n), repeat=k))
        report = validate_protocol(protocol, inputs)
        assert report.ok, report.problems
