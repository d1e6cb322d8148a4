"""The reference engines render the recorded default tables.

The exact analyzer has one engine.  What it replaced lives on as
references in ``repro.check.mutations``: the dict-driven shared walk
and dict fold, the scalar folds behind ``_VECTOR_MIN_SUPPORT``, the
memoized rectangle recursion behind ``_E14_CELL_CAP`` and the
message-level runner behind E1's bigint simulators.  Here
``reference_engines`` swaps all of them into production, each
experiment renders its default grid, every row value must equal the
engine's float for float, and the table's SHA-256 must equal the one
recorded for the engine in ``perfbench/results/experiments.json``.
The set of references that served calls must also be exactly the set
recorded below, so a reference that stops being reached (the comparison
would then run the engine against itself) fails the test.

E13 and E15 reach none of the references (their analysis is the
optimal-error DP and the message-level runner, which have one
implementation); they render here for their digests only.

Run with (about 2 min on a 2-CPU x86-64 machine)::

    REPRO_BENCH_STORE=0 PYTHONPATH=src python -m pytest benchmarks/test_reference_engines.py
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.check.mutations import reference_engines, shared_walk_reference
from repro.experiments import ALL_EXPERIMENTS
from repro.perf import kernels

RECORDED = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "results", "experiments.json",
)

#: experiment -> the references its default grid reaches.
REACHED = {
    "E1": {"runner"},
    "E2": {"walk", "fold"},
    "E3": {"walk", "fold"},
    "E4": {"walk"},
    "E5": {"walk", "fold"},
    "E6": {"walk", "fold"},
    "E9": {"walk", "fold"},
    "E10": {"walk", "fold"},
    "E13": set(),
    "E14": {"walk", "fold", "recursion"},
    "E15": set(),
    "E16": {"walk", "fold", "runner"},
}


@pytest.fixture(autouse=True)
def metrics_off(obs_metrics):
    """The references run with the metrics registry off, as a plain
    ``python -m repro.experiments`` run does."""
    obs_metrics.enabled = False
    yield


def recorded_digest(experiment):
    with open(RECORDED, encoding="utf-8") as handle:
        rows = json.load(handle)["experiments"]
    (digest,) = [row["table_sha256"] for row in rows
                 if row["experiment"] == experiment]
    return digest


@pytest.mark.parametrize(
    "experiment", sorted(REACHED, key=lambda experiment: int(experiment[1:]))
)
def test_default_table_matches_the_engine(experiment, monkeypatch):
    run = ALL_EXPERIMENTS[experiment]
    engine = run()
    with monkeypatch.context() as patch:
        calls = reference_engines(patch.setattr)
        reference = run()
    served = {name for name, count in calls.items() if count}
    assert served == REACHED[experiment], calls
    # Rows hold the unformatted values, so this is float ==, not the
    # rendered digits the digest sees.
    assert reference.rows == engine.rows
    digest = hashlib.sha256(reference.render().encode()).hexdigest()
    assert digest == recorded_digest(experiment)


@pytest.mark.parametrize("lineage_bits", [None, 4])
def test_branching_levels(lineage_bits, monkeypatch):
    """Every node forks into both messages from two blocks, so each
    child is fed by several segments; with 4 lineage bits the gather
    also carries the frozen spill columns.  The leaf tables are compared
    directly: the full joint law has 2^20 rows."""
    from repro.protocols import NoisySequentialAndProtocol

    if lineage_bits is not None:
        monkeypatch.setattr(kernels, "_LINEAGE_BITS", lineage_bits)
    protocol = NoisySequentialAndProtocol(10, 0.125)
    inputs = list(itertools.product((0, 1), repeat=10))
    reference = shared_walk_reference(protocol, inputs, max_messages=16)
    leaves, *stats = kernels.tree_walk_sorted_leaves(
        protocol, inputs, max_messages=16
    )
    assert (leaves.rows(), *stats) == reference
