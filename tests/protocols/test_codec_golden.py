"""Golden transcripts of the three disjointness-family codecs.

The optimal (Section 5), naive and union protocols write explicit bit
strings whose exact layout is a frozen format: E1, E11, the wire
framing and every stored table count these bits.  These pins hold the
SHA-256 of ``(transcript, output, bits_communicated)`` over seeded
instances at every grid point, so any codec rewrite must reproduce each
message bit for bit.

The instance mix covers both input families (disjoint and
intersecting; for the union, dense and sparse element sets), the
batch phase (``n >= k^2``), the endgame-only regime (``n < k^2``) and
all-pass cycles; ``test_regimes_are_covered`` checks that the mix
really reaches each of them.  Every run stops at the protocol's
declared ``max_messages``, so a codec bug that stops the protocol from
halting fails fast with ``ProtocolViolation``.
"""

import hashlib
import random

import pytest

from repro.core import run_protocol
from repro.protocols import (
    NaiveDisjointnessProtocol,
    OptimalDisjointnessProtocol,
    UnionProtocol,
)

NS = (1, 2, 5, 64, 511, 512, 2048)
KS = (2, 3, 8, 16, 64)

PROTOCOLS = {
    "optimal": OptimalDisjointnessProtocol,
    "naive": NaiveDisjointnessProtocol,
    "union": UnionProtocol,
}

#: "<protocol>-<n>" -> SHA-256 over every k in KS and every instance of
#: ``_instances(n, k)``.
GOLDEN = {
    "naive-1": "63430ec33ceda13168e64d6c422ff82c6705ebe0adc6a3c03202e79a15feb359",
    "naive-2": "08ebbcce4749a4621df542e3a3da9bb8c11262dffa27a402d930c38984a1cd9c",
    "naive-5": "e5a29583c7cecd660d47765633caff5989c0379780e767602a74f04a79735559",
    "naive-64": "a8fb56e5a4805c31f4a651bfdb574ed63ffa10d2a08a0ebc10fe9818d5de80bc",
    "naive-511": "a76c4f3cdaefc4973a6e9dde2915a6f8d80d88f68eff3eebd197f32e80b730ba",
    "naive-512": "1090d973d87f8cca54ea2370d0dd3a6559df4db2098e13d730df74b1d248289d",
    "naive-2048": "9977b1c8380bc12c848fd84517e6ee335bfa9c50a0ca2b582d87f2a33a979a4b",
    "optimal-1": "25319da289d6a916a046cc93fdae82c57befed774744b7148a87c5d428c373dd",
    "optimal-2": "f01185af3b309141edf80dfa3845a3add98d4919a6db66f4c833d702777bb2a2",
    "optimal-5": "e816a4d0be47240f5133bc179a94db4a88176fa067751d5e55b156544ede4125",
    "optimal-64": "b5c0cf615b8138b51f4eb07691b1ebe76ea3a04525113da67fe0b1961e1777b3",
    "optimal-511": "dc6f9fff105e69b25766ced55485276649f2a7199d41326dbbcde5720d497e97",
    "optimal-512": "ab8d70a1cdfa9d545443aa78dbd00bc11fa35dfbe61ba97f8b0f9d297f342b61",
    "optimal-2048": "a544682c46c2fbdb2c5bec5814da19b4e7eb462d0bdb7cf4af39cb563368d305",
    "union-1": "c477c80460e82ec0a5fd88a05c1dbae275375f8fbde7d055faac1d2184ebcded",
    "union-2": "3d9ce2d5120f434b2a6d4227177ff8a26558d5624263b6ed98686696eb4926bc",
    "union-5": "05fb14d9b6d2d735f055724033a52585f75af46f7ca5ba3698d9ed5e28a17dc5",
    "union-64": "55267c2957095656cb4fa394b8c44121cc872cbd57eaf30f621a4b6bc6f3c51c",
    "union-511": "f57e25c6f21afb57930806a2bb9c163f61c19f0a29d83e33337c0e40a33412ef",
    "union-512": "504b298675576f91c8c8e7fc2f8fd5c70a13621ce84ac0d9cdcbbaab2fe524f6",
    "union-2048": "aeaa0a8ff5ccc7468bc7998a7e952e96a71b22cff07ca6141d0e5410c4021a13",
}


def _instances(n, k):
    """Seeded ``k``-tuples of ``n``-bit masks: a disjoint and an
    intersecting draw at each one-density, plus the partition input
    (each coordinate a zero of exactly one player)."""
    rng = random.Random(f"codec-golden-{n}-{k}")
    full = (1 << n) - 1
    out = []
    for ones in (0.1, 0.5, 0.97):
        for disjoint in (True, False):
            masks = [
                sum(1 << c for c in range(n) if rng.random() < ones)
                for _ in range(k)
            ]
            common = full
            for mask in masks:
                common &= mask
            if disjoint:
                # Clear each all-ones coordinate in one random player.
                for c in range(n):
                    if common >> c & 1:
                        masks[rng.randrange(k)] &= ~(1 << c)
            else:
                c = rng.randrange(n)
                masks = [mask | 1 << c for mask in masks]
            out.append(tuple(masks))
    out.append(tuple(
        full & ~sum(1 << c for c in range(n) if c % k == p)
        for p in range(k)
    ))
    return out


def _record(run):
    messages = tuple((m.speaker, m.bits) for m in run.transcript)
    return repr((messages, run.output, run.bits_communicated))


def _digest(name, n):
    hasher = hashlib.sha256()
    for k in KS:
        protocol = PROTOCOLS[name](n, k)
        for inputs in _instances(n, k):
            hasher.update(_record(run_protocol(protocol, inputs)).encode())
            hasher.update(b"\n")
    return hasher.hexdigest()


def test_every_point_is_pinned():
    assert sorted(GOLDEN) == sorted(
        f"{name}-{n}" for name in PROTOCOLS for n in NS
    )


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_transcripts_match_golden(name, n):
    assert _digest(name, n) == GOLDEN[f"{name}-{n}"]


def _states(protocol, run):
    state = protocol.initial_state()
    states = [state]
    for message in run.transcript:
        state = protocol.advance_state(state, message)
        states.append(state)
    return states


def test_regimes_are_covered():
    """The pinned instances reach every codec path: batch writes and
    passes, endgame writes, an all-pass batch cycle (optimal: verdict
    0; union: drop to the endgame), and both outputs of each
    disjointness protocol."""
    seen = set()
    for n in NS:
        for k in KS:
            for inputs in _instances(n, k):
                optimal = OptimalDisjointnessProtocol(n, k)
                run = run_protocol(optimal, inputs)
                seen.add(("optimal-output", run.output))
                states = _states(optimal, run)
                for before, message in zip(states, run.transcript):
                    phase = "endgame" if before.endgame else "batch"
                    kind = "pass" if message.bits == "0" else "write"
                    seen.add(("optimal", phase, kind))
                last = states[-1]
                if last.verdict == 0 and not last.endgame and not last.wrote:
                    seen.add(("optimal", "all-pass"))

                union = UnionProtocol(n, k)
                states = _states(union, run_protocol(union, inputs))
                for before, after in zip(states, states[1:]):
                    if (
                        after.endgame and not before.endgame
                        and not before.wrote and after.covered == before.covered
                    ):
                        seen.add(("union", "all-pass"))
                    if before.endgame and after.covered != before.covered:
                        seen.add(("union", "endgame", "write"))
                    if not before.endgame and after.covered != before.covered:
                        seen.add(("union", "batch", "write"))

                naive = NaiveDisjointnessProtocol(n, k)
                seen.add(("naive-output", run_protocol(naive, inputs).output))
    assert seen >= {
        ("optimal-output", 0), ("optimal-output", 1),
        ("naive-output", 0), ("naive-output", 1),
        ("optimal", "batch", "pass"), ("optimal", "batch", "write"),
        ("optimal", "endgame", "pass"), ("optimal", "endgame", "write"),
        ("optimal", "all-pass"),
        ("union", "batch", "write"), ("union", "endgame", "write"),
        ("union", "all-pass"),
    }


if __name__ == "__main__":  # prints the pin table for a recorded tree
    for name in sorted(PROTOCOLS):
        for n in NS:
            print(f'    "{name}-{n}": "{_digest(name, n)}",')
