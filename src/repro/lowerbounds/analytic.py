"""Closed-form information costs for the witness protocols.

The exact tree analyzer is exponential in ``k``; for the *sequential*
AND protocol under the Section 4 hard distribution the conditional
information cost also has a closed form, which lets the E2 experiment
reach arbitrary ``k`` and quantifies the error of the ≤3-zero truncation
used by the generic machinery.

Derivation: the protocol is deterministic, so
:math:`CIC_\\mu = H(\\Pi \\mid Z)`; the transcript is determined by the
position :math:`J` of the first zero (0-based speaking order).  Given
:math:`Z = z`: players before ``z`` hold 0 independently with
probability :math:`1/k` and player ``z`` holds 0 surely, so

.. math::
    \\Pr[J = j \\mid Z = z] =
    \\begin{cases}
        (1 - 1/k)^j \\, (1/k) & j < z \\\\
        (1 - 1/k)^z           & j = z \\\\
        0                     & j > z,
    \\end{cases}

and :math:`CIC = \\frac1k \\sum_z H(J \\mid Z = z)`.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "sequential_and_cic_closed_form",
]


@functools.lru_cache(maxsize=16, typed=True)
def sequential_and_cic_closed_form(k: int) -> float:
    """:math:`CIC_\\mu(\\text{sequential AND}_k)` exactly, in closed form.

    Matches :func:`repro.core.analysis.conditional_information_cost` on
    the exact (untruncated) hard distribution — asserted by tests for
    every ``k`` the exact machinery can reach.

    Cost: :math:`O(k)`.  The naive evaluation re-sums
    :math:`H(J \\mid Z = z)` from scratch per ``z`` (:math:`O(k^2)`,
    minutes at :math:`k = 2^{16}`); but the ``j < z`` portion of the
    ``z``-th entropy is exactly the ``j < z`` prefix of the ``(z+1)``-th,
    so one running prefix plus the ``j = z`` boundary term reproduces the
    naive float result bit for bit — every term is computed with the same
    expression and accumulated in the same order.

    The value is a pure function of ``k``, so the last 16 distinct
    ``k`` are memoized per process (E2 renders k = 256, 4096 and 65536
    on every run, store hits included); ``__wrapped__`` is the
    unmemoized evaluation, and ``k < 2`` raises on every call.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    q = 1.0 - 1.0 / k
    total = 0.0
    # -sum_{j<z} p_j log2 p_j with p_j = q^j / k, grown incrementally.
    prefix = 0.0
    for z in range(k):
        entropy = prefix
        boundary = q**z  # Pr[J = z | Z = z]
        if boundary > 0.0:
            entropy -= boundary * math.log2(boundary)
        total += entropy
        p = (q**z) * (1.0 / k)  # the j = z interior term joins at z + 1
        if p > 0.0:
            prefix -= p * math.log2(p)
    return total / k
