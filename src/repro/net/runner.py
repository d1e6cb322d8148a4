"""`run_networked`: the drop-in networked twin of ``run_protocol``.

Same protocol object, same inputs, same seed discipline, same
:class:`~repro.core.runner.ProtocolRun` out — but executed by k
independent party endpoints talking to a blackboard service over a
transport, instead of one in-process loop.  The central guarantee
(enforced by ``tests/net/`` and the ``networked-loopback`` check
oracle): for any protocol and seed, ``run_networked(...)`` is
**bit-identical** to ``run_protocol(protocol, inputs,
rng=random.Random(seed))`` — transcript, output, and
``bits_communicated`` — with or without recoverable injected faults —
over either transport: the seeded ``loopback`` simulator
(:mod:`repro.net.loopback`, faultable) or real ``tcp`` sockets
(:mod:`repro.net.tcp`, reliable, called from sync code).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from ..core.model import Protocol
from ..core.runner import ProtocolRun
from .byzantine import ByzantineConfig, check_run_args
from .client import RetryPolicy
from .faults import FaultPlan
from .loopback import LoopbackRunner
from .tcp import run_tcp

__all__ = ["run_networked", "TRANSPORTS"]

#: Transport names accepted by :func:`run_networked`.
TRANSPORTS = ("loopback", "tcp")


def run_networked(
    protocol: Protocol,
    inputs: Sequence[Any],
    *,
    seed: Optional[int] = None,
    transport: str = "loopback",
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    timeout: float = 60.0,
    byzantine: Optional[Union[int, ByzantineConfig]] = None,
) -> ProtocolRun:
    """Execute ``protocol`` over a real transport.

    The run is traced into the process-wide tracer
    (:func:`repro.obs.using_tracer`): a ``net_run`` span, per-party
    spans (per-connection on TCP) and fault/retry/connect events.

    Parameters
    ----------
    protocol:
        The (unmodified) protocol to run; the same object class
        :func:`~repro.core.runner.run_protocol` executes.  Its
        ``max_messages`` is the same hang guard as ``run_protocol``'s —
        exceeded, every party raises the identical
        :class:`~repro.core.model.ProtocolViolation`.
    inputs:
        One private input per player; each party endpoint sees only its
        own.
    seed:
        Seed of the shared private-coin stream.  ``run_networked(...,
        seed=s)`` matches ``run_protocol(..., rng=random.Random(s))``
        bit for bit.  May be ``None`` for deterministic protocols.
    transport:
        ``"loopback"`` (deterministic, in-process, faultable) or
        ``"tcp"`` (real sockets on 127.0.0.1).
    faults:
        Optional seeded :class:`~repro.net.faults.FaultPlan`
        (loopback only).
    retry:
        Per-party :class:`~repro.net.client.RetryPolicy`; defaults are
        transport-appropriate (scheduler steps vs seconds).
    timeout:
        TCP wall-clock budget in seconds.  The loopback's budget is
        :data:`~repro.net.loopback.DEFAULT_MAX_STEPS` scheduler events
        (:class:`~repro.net.errors.NetTimeoutError` on exhaustion).
    byzantine:
        Run the Bracha reliable-broadcast layer beneath the blackboard
        (:mod:`repro.net.byzantine`).  An ``int`` is shorthand for
        ``ByzantineConfig(f=...)``; a full
        :class:`~repro.net.byzantine.ByzantineConfig` may also carry a
        :class:`~repro.net.faults.ByzantineFaultPlan` (loopback only)
        that actively injects equivocation/forgery/replay/silence at up
        to ``f`` compromised parties.  With ``k > 3f`` the run stays
        bit-identical to ``run_protocol``; at ``k <= 3f`` violations
        surface as :class:`~repro.net.errors.ByzantineQuorumError`.

    Returns
    -------
    ProtocolRun
        Identical to the in-memory runner's result for the same seed.
    """
    if isinstance(byzantine, int):
        byzantine = ByzantineConfig(f=byzantine)
    if transport == "loopback":
        return LoopbackRunner(
            protocol,
            inputs,
            seed=seed,
            faults=faults,
            retry=retry,
            byzantine=byzantine,
        ).run()
    if transport == "tcp":
        check_run_args(
            protocol.num_players, "tcp", faults=faults, byzantine=byzantine
        )
        return run_tcp(
            protocol,
            inputs,
            seed=seed,
            retry=retry,
            timeout=timeout,
            byzantine=byzantine,
        )
    raise ValueError(
        f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
    )
