"""``repro.net`` — a real networked broadcast runtime, bit-identical to
the in-memory runner.

The paper's model is a shared blackboard: k players, a board-determined
speaking order, every written bit visible to all.  This package makes
that literal — a :class:`BlackboardServer` owns the board and enforces
the speaking order (which it can do without ever seeing an input, since
``next_speaker`` depends on the board alone), and one
:class:`PartyClient` per player drives an *unmodified*
:class:`~repro.core.model.Protocol` from its private input and private
coins, over frames in one length-prefixed, checksummed envelope
(:mod:`~repro.net.framing`, :mod:`~repro.net.envelope`).

The headline contract, enforced by ``tests/net/`` (generated protocols
in ``tests/net/test_generated.py``)::

    run_networked(p, xs, seed=s)
        == run_protocol(p, xs, rng=random.Random(s))     # bit for bit

— transcript, output, and ``bits_communicated`` — on every registry
protocol and on generated protocols, both fault-free and under every
recoverable fault class of :mod:`~repro.net.faults` (delay/reorder,
corruption, drops, crash-restart with blackboard catch-up).
Unrecoverable faults raise typed :class:`NetError` subclasses; nothing
in this package hangs.  See ``docs/networking.md`` for the wire format,
the coin-stream replication argument, and the fault model.

``run_networked(..., byzantine=f)`` additionally layers Bracha '87
reliable broadcast (:mod:`~repro.net.byzantine`) beneath the
blackboard: with up to ``f`` lying parties and ``k > 3f`` the same
bit-identity contract holds; at ``k <= 3f`` violations raise the typed
:class:`ByzantineQuorumError` instead of hanging or diverging.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "byzantine": (
        "ALL_PARTIES",
        "SERVER",
        "BrachaRelay",
        "ByzantineConfig",
        "ByzantineParty",
        "echo_quorum",
        "ready_quorum",
    ),
    "client": ("PartyClient", "RetryPolicy"),
    "errors": (
        "ByzantineQuorumError",
        "CrashedPartyError",
        "FrameCorrupted",
        "FrameError",
        "FrameTruncated",
        "NetError",
        "NetTimeoutError",
        "OrderViolationError",
        "RetriesExhaustedError",
    ),
    "faults": (
        "ByzantineAdversary",
        "ByzantineDecision",
        "ByzantineFaultPlan",
        "FaultDecision",
        "FaultInjector",
        "FaultPlan",
        "PartyCrash",
        "byzantine_fault_plans",
        "chaos_plan",
        "recoverable_fault_plans",
    ),
    "framing": (
        "Frame",
        "FrameDecoder",
        "FrameKind",
        "decode_frame",
        "encode_frame",
        "pack_bits",
        "unpack_bits",
    ),
    "loopback": ("DEFAULT_MAX_STEPS", "LoopbackRunner"),
    "runner": ("TRANSPORTS", "run_networked"),
    "server": ("BlackboardServer",),
    "tcp": ("TCP_RETRY_POLICY", "run_tcp"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    # runner
    "run_networked",
    "TRANSPORTS",
    # wire protocol
    "Frame",
    "FrameKind",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "pack_bits",
    "unpack_bits",
    # endpoints
    "BlackboardServer",
    "PartyClient",
    "RetryPolicy",
    "TCP_RETRY_POLICY",
    "LoopbackRunner",
    "DEFAULT_MAX_STEPS",
    "run_tcp",
    # faults
    "FaultPlan",
    "FaultDecision",
    "FaultInjector",
    "PartyCrash",
    "recoverable_fault_plans",
    "chaos_plan",
    # byzantine layer
    "ByzantineConfig",
    "BrachaRelay",
    "ByzantineParty",
    "ByzantineFaultPlan",
    "ByzantineDecision",
    "ByzantineAdversary",
    "byzantine_fault_plans",
    "echo_quorum",
    "ready_quorum",
    "SERVER",
    "ALL_PARTIES",
    # errors
    "NetError",
    "FrameError",
    "FrameTruncated",
    "FrameCorrupted",
    "OrderViolationError",
    "RetriesExhaustedError",
    "CrashedPartyError",
    "NetTimeoutError",
    "ByzantineQuorumError",
]
