"""E6 — Theorem 3: amortized compression converges to the information
cost."""

import random

from repro.compression import compress_parallel_copies
from repro.experiments import e6_amortized as e6
from repro.lowerbounds import and_hard_input_marginal
from repro.protocols import SequentialAndProtocol

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e6.run()
    return _CACHE["table"]


def test_e6_amortized_kernel(results_dir):
    """One 64-copy compressed execution (k = 4)."""
    protocol = SequentialAndProtocol(4)
    mu = and_hard_input_marginal(4)
    rng = random.Random(0)
    report = compress_parallel_copies(protocol, mu, 64, rng)
    assert report.copies == 64

    table = full_table()
    save_and_echo(table, results_dir)


def test_e6_per_copy_cost_decreasing():
    """bits/copy decreases monotonically over large steps of n and the
    excess over IC at the largest n is small."""
    rows = full_table().rows
    per_copy = {row[0]: row[1] for row in rows}
    ns = sorted(per_copy)
    # Compare n to 4n to smooth Monte-Carlo noise.
    for n in ns:
        if 4 * n in per_copy:
            assert per_copy[4 * n] < per_copy[n], n
    largest = max(ns)
    excess = dict((row[0], row[3]) for row in rows)[largest]
    assert excess < 1.0, excess


def test_e6b_compression_beats_uncompressed_broadcast(results_dir):
    """E6b: for the full-broadcast protocol (IC < CC = k), amortized
    compression ends up cheaper than the uncompressed protocol itself —
    the positive side of Theorem 3."""
    table = e6.run(
        copies_schedule=(1, 16, 64, 256),
        k=6,
        protocol_name="broadcast",
        experiment_id="E6b",
        seed=4,
    )
    save_and_echo(table, results_dir)
    per_copy = {row[0]: row[1] for row in table.rows}
    uncompressed = {row[0]: row[4] for row in table.rows}
    assert per_copy[256] < uncompressed[256]  # compression wins outright
    assert per_copy[256] < per_copy[1]


def test_e6_divergence_tracks_ic():
    """Per-copy realized divergence ≈ IC at every n (the chain rule)."""
    for row in full_table().rows:
        n, _bits, divergence, _excess, _orig = row
        if n >= 16:
            assert abs(divergence - 1.8196) < 0.5, (n, divergence)
