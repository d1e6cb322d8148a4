"""Working-memory guards for the exact kernels, by tracemalloc.

numpy reports its buffers to tracemalloc, so a traced peak counts every
array a kernel builds as well as every Python object.  Each bound is a
table the kernel would have to build whole, sized from the code: the
kernels hold only what they read, so they stay below it with room.
"""

import contextlib
import tracemalloc

import pytest

from repro.compression.gap import _iid_bits, and_gap_report
from repro.core import conditional_transcript_joint
from repro.lowerbounds.hard_distribution import and_hard_distribution
from repro.lowerbounds.optimal_information import minimum_zero_error_cic
from repro.lowerbounds.posterior import per_player_divergence_sum
from repro.perf import kernels
from repro.protocols import NoisySequentialAndProtocol

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

FLOAT64 = INT64 = 8


@contextlib.contextmanager
def tracing():
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        yield
    finally:
        if not outer:
            tracemalloc.stop()


def traced_peak(compute):
    """Bytes allocated at the peak of ``compute()`` above what was
    allocated when it started."""
    with tracing():
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        compute()
        return tracemalloc.get_traced_memory()[1] - start


def test_rectangle_dp_holds_no_dense_mass_table():
    # One float64 per (z, rectangle): 12 * 3**12 * 8 bytes = 51 MB.
    k = 12
    dense_masses = k * 3 ** k * FLOAT64
    assert traced_peak(lambda: minimum_zero_error_cic(k)) < dense_masses


def test_divergence_sum_holds_no_rows_by_players_array():
    # E10's largest joint; one int64 per (row, player) is 16.8 MB.
    k = 8
    joint = conditional_transcript_joint(
        NoisySequentialAndProtocol(k, 0.2), and_hard_distribution(k)
    )
    rows = kernels.joint_columns(joint).p.shape[0]
    rows_by_players = rows * k * INT64
    assert traced_peak(
        lambda: per_player_divergence_sum(joint, k)
    ) < rows_by_players


def test_gap_report_holds_one_default_law_at_a_time():
    # Two k = 16 laws at once would reach twice one law's size.
    k = 16
    with tracing():
        start = tracemalloc.get_traced_memory()[0]
        law = _iid_bits(k, 0.5)
        one_law = tracemalloc.get_traced_memory()[0] - start
    del law
    assert traced_peak(lambda: and_gap_report(k)) < 2 * one_law
