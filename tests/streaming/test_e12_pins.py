"""Pins of the streaming reduction: the E12 default table and the
states the capped-frequency counter posts on the board.

Both digests were recorded before the per-mask fold replaced the
per-item update loop in ``StreamingSimulationProtocol``; they must not
move.
"""

import hashlib
import random

from repro.core.runner import run_protocol
from repro.experiments import e12_streaming_space
from repro.experiments.workloads import partition_instance, random_instance
from repro.streaming.algorithms import CappedFrequencyCounter
from repro.streaming.reduction import StreamingSimulationProtocol

E12_TABLE_SHA256 = (
    "d998bcd474968a1fb91a7628f4f7a09931884fbad987eaddace256a4a9f30f7a"
)
POSTED_STATES_SHA256 = (
    "a30f1d7973aa597acba9c67d5c6ec5bde26fa779da6413d06384b195aacc1bcc"
)


def posted_states():
    """Every message of the reduction protocol on seeded instances, with
    caps below, at and above the number of players."""
    rng = random.Random(12)
    lines = []
    for n, k, cap in ((1, 2, 2), (9, 3, 1), (16, 4, 4), (40, 5, 3),
                      (64, 4, 7), (130, 8, 8)):
        algorithm = CappedFrequencyCounter(n, cap)
        protocol = StreamingSimulationProtocol(algorithm, k)
        instances = [partition_instance(n, k)] + [
            random_instance(n, k, rng, density=density)
            for density in (0.1, 0.5, 0.9, 1.0)
        ]
        for inputs in instances:
            run = run_protocol(protocol, inputs, rng=random.Random(0))
            lines.append(
                f"{n} {k} {cap} {run.output} "
                + " ".join(message.bits for message in run.transcript)
            )
    return "\n".join(lines)


def test_posted_states_are_pinned():
    digest = hashlib.sha256(posted_states().encode()).hexdigest()
    assert digest == POSTED_STATES_SHA256


def test_e12_default_table_is_pinned():
    table = e12_streaming_space.run()
    digest = hashlib.sha256(table.render().encode()).hexdigest()
    assert digest == E12_TABLE_SHA256
