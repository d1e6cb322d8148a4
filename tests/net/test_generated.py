"""Generated-protocol coverage: the networked runtime is bit-identical
to the in-memory runner on arbitrary valid protocols, not just shipped
ones.

The ``repro.check`` generator produces randomized multi-party protocols
with mixed point-mass and sampled messages — exactly the traffic that
stresses the coin-replication discipline.  Acceptance floor: at least
25 generated cases, each bit-identical over loopback fault-free *and*
under every recoverable fault class and the chaos plan.  This suite
is the contract; no fuzz oracle repeats it.
"""

import random

import pytest

from repro.check import generate_case
from repro.core.runner import run_protocol
from repro.net import chaos_plan, recoverable_fault_plans, run_networked

MASTER_SEED = 99
NUM_CASES = 25
CASES = [generate_case(MASTER_SEED, index) for index in range(NUM_CASES)]


@pytest.mark.parametrize(
    "case", CASES, ids=[f"case{c.index}" for c in CASES]
)
def test_fault_free_bit_identity(case):
    seed = case.spec.seed
    for inputs in case.input_tuples[:2]:
        reference = run_protocol(
            case.protocol, inputs, rng=random.Random(seed)
        )
        networked = run_networked(case.protocol, inputs, seed=seed)
        assert networked == reference, inputs


@pytest.mark.parametrize(
    "case", CASES, ids=[f"case{c.index}" for c in CASES]
)
def test_every_recoverable_fault_class_preserves_bit_identity(case):
    seed = case.spec.seed
    inputs = case.input_tuples[0]
    reference = run_protocol(case.protocol, inputs, rng=random.Random(seed))
    plans = dict(recoverable_fault_plans(seed))
    plans["chaos"] = chaos_plan(seed)
    for name, plan in sorted(plans.items()):
        networked = run_networked(
            case.protocol, inputs, seed=seed, faults=plan
        )
        assert networked == reference, name
