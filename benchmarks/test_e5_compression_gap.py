"""E5 — Section 6: the Ω(k / log k) information/communication gap."""

from repro.compression import and_gap_report
from repro.experiments import e5_gap as e5

from conftest import save_and_echo

_CACHE = {}


def full_table():
    if "table" not in _CACHE:
        _CACHE["table"] = e5.run()
    return _CACHE["table"]


def test_e5_gap_kernel(results_dir):
    """One gap measurement (k = 8; four exact IC computations)."""
    report = and_gap_report(8)
    assert report.worst_case_communication == 8

    table = full_table()
    save_and_echo(table, results_dir)


def test_e5_information_bounded_by_log():
    for row in full_table().rows:
        k, max_ic, entropy_bound, cc, cc_bound, gap, reference = row
        assert max_ic <= entropy_bound + 1e-9
        assert cc == k
        assert cc_bound <= cc + 1e-9


def test_e5_gap_grows_like_k_over_log_k():
    rows = full_table().rows
    gaps = [row[5] for row in rows]
    references = [row[6] for row in rows]
    # Monotone growth, tracking k/log2(k+1) within a factor of 2.
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    for gap, reference in zip(gaps, references):
        assert 0.5 * reference <= gap <= 2.0 * reference
