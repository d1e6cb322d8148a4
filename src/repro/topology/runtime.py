"""Concrete execution of medium protocols.

:func:`run_on_medium` is :func:`repro.core.runner.run_protocol` with the
medium as a positional argument: one engine runs every medium, and the
result is the same :class:`~repro.core.runner.ProtocolRun`, whose
``bits_by_link`` gives the per-link breakdown.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence

from ..core.model import Medium, Protocol
from ..core.runner import ProtocolRun, run_protocol

__all__ = ["run_on_medium"]


def run_on_medium(
    protocol: Protocol,
    medium: Medium,
    inputs: Sequence[Any],
    *,
    rng: Optional[random.Random] = None,
) -> ProtocolRun:
    """Execute ``protocol`` once on ``medium`` with the given inputs
    (one per player; auxiliary nodes receive ``None``)."""
    return run_protocol(protocol, inputs, rng=rng, medium=medium)
