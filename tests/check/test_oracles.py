"""Mutation self-tests: every oracle provably catches its planted bugs.

A differential oracle that never fires is indistinguishable from a
vacuous one.  Each oracle in the inventory therefore declares the
defects (``oracle.bugs``) that can be planted in its independently
re-derived reference implementation (``repro.check.mutations``); these
tests assert, for every declared bug, that some early case in the seeded
stream makes the mutated comparison fail while the clean comparison
passes.  A bug that stops being caught means the oracle lost its teeth —
treat that as a broken oracle, not a flaky test.
"""

import pytest

from repro.check import ALL_ORACLES, generate_case, oracle_by_name
from repro.check.mutations import TREE_BUGS
from repro.perf import kernels

MASTER_SEED = 0
# Every planted bug is currently caught at case index 0 or 1; searching a
# few dozen keeps the self-test robust to generator-stream tweaks
# without hiding an oracle that has actually gone blind.
SEARCH_LIMIT = 30

BUG_PAIRS = [
    (oracle, bug) for oracle in ALL_ORACLES for bug in oracle.bugs
]
assert BUG_PAIRS, "oracle inventory declares no planted bugs"


@pytest.mark.parametrize(
    "oracle,bug",
    BUG_PAIRS,
    ids=[f"{oracle.name}-{bug}" for oracle, bug in BUG_PAIRS],
)
def test_planted_bug_is_caught(oracle, bug):
    for index in range(SEARCH_LIMIT):
        case = generate_case(MASTER_SEED, index)
        mutated = oracle.check(case, bug=bug)
        if not mutated.ok:
            clean = oracle.check(case)
            assert clean.ok, (
                f"{oracle.name} fails even without the planted bug at "
                f"case {index}: {clean.details}"
            )
            return
    pytest.fail(
        f"oracle {oracle.name!r} never caught planted bug {bug!r} in the "
        f"first {SEARCH_LIMIT} cases of seed {MASTER_SEED}"
    )


# Every oracle, plus the tree-engine oracle in its numpy-free mode: the
# legacy engine against the per-input DFS alone, the comparison once
# made by the ``batched-vs-legacy`` oracle, whose case name it keeps.
ORACLE_MODES = [
    pytest.param(oracle, True, id=oracle.name) for oracle in ALL_ORACLES
] + [
    pytest.param(
        oracle_by_name("vectorized-vs-legacy"), False, id="batched-vs-legacy"
    )
]


def _set_numpy(monkeypatch, with_numpy):
    if not with_numpy:
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)


@pytest.mark.parametrize("oracle,with_numpy", ORACLE_MODES)
def test_unknown_bug_is_rejected(monkeypatch, oracle, with_numpy):
    _set_numpy(monkeypatch, with_numpy)
    case = generate_case(MASTER_SEED, 0)
    with pytest.raises(ValueError):
        oracle.check(case, bug="no-such-defect")


@pytest.mark.parametrize("oracle,with_numpy", ORACLE_MODES)
def test_clean_stream_passes(monkeypatch, oracle, with_numpy):
    _set_numpy(monkeypatch, with_numpy)
    for index in range(10):
        result = oracle.check(generate_case(MASTER_SEED, index))
        assert result.ok, (index, result.details)
        if not with_numpy:
            assert "numpy unavailable" in result.details, result.details


@pytest.mark.parametrize("bug", TREE_BUGS)
def test_tree_oracle_runs_the_dfs_without_numpy(monkeypatch, bug):
    """Without numpy there is no vectorized engine, but the legacy
    engine is still compared with the per-input DFS — and caught."""
    monkeypatch.setattr(kernels, "numpy_available", lambda: False)
    oracle = oracle_by_name("vectorized-vs-legacy")
    for index in range(SEARCH_LIMIT):
        case = generate_case(MASTER_SEED, index)
        if not oracle.check(case, bug=bug).ok:
            clean = oracle.check(case)
            assert clean.ok, clean.details
            assert "bit-identical to the DFS" in clean.details
            assert "numpy unavailable" in clean.details
            return
    pytest.fail(f"{bug!r} was never caught without numpy")
