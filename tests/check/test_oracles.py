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

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.check import ALL_ORACLES, generate_case

MASTER_SEED = 0
# Every planted bug is currently caught at case index 0 or 1; searching a
# few dozen keeps the self-test robust to generator-stream tweaks
# without hiding an oracle that has actually gone blind.
SEARCH_LIMIT = 30

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

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


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.name)
def test_unknown_bug_is_rejected(oracle):
    case = generate_case(MASTER_SEED, 0)
    with pytest.raises(ValueError):
        oracle.check(case, bug="no-such-defect")


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: o.name)
def test_clean_stream_passes(oracle):
    for index in range(10):
        result = oracle.check(generate_case(MASTER_SEED, index))
        assert result.ok, (index, result.details)


_IMPURE_CATCHES = """
from repro.check import generate_case, oracle_by_name
oracle = oracle_by_name("model-discipline")
print([i for i in range(%d) if not oracle.check(
    generate_case(%d, i), bug="impure-state").ok])
"""


def test_impure_state_catches_do_not_depend_on_the_hash_seed():
    """The ``impure-state`` trigger counts builds per board, not calls in
    visiting order, so string-set iteration order (``PYTHONHASHSEED``)
    cannot move which cases it is caught on."""
    source = _IMPURE_CATCHES % (SEARCH_LIMIT, MASTER_SEED)
    caught = []
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        result = subprocess.run(
            [sys.executable, "-c", source],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        caught.append(result.stdout)
    assert caught[0] == caught[1]
    assert caught[0].strip() != "[]"
