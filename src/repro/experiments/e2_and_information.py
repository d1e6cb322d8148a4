"""E2 — Theorem 1: ``CIC_μ(AND_k) = Ω(log k)``.

Computes, exactly, the conditional information cost
:math:`I(\\Pi; X \\mid Z)` of concrete :math:`\\mathrm{AND}_k` protocols
under the Section 4 hard distribution :math:`\\mu`, for growing ``k``.

Theorem 1 is a lower bound over *all* protocols; an experiment cannot
quantify over protocols, but it can exhibit the two sides that pin the
Θ-shape down:

* the *witness* protocols (sequential AND, full broadcast) must reveal
  at least ``c log k`` bits — their measured CIC should grow linearly in
  ``log2 k`` with a constant slope;
* no protocol can do better than 0, and the paper's bound says every
  correct protocol sits at ``Ω(log k)`` — the sequential protocol, which
  is also communication-optimal on average, is the natural candidate for
  the *cheapest* correct protocol, and its CIC growth is the measured
  floor we report.

For ``k`` beyond exact-enumeration range the hard distribution is
truncated to inputs with at most 3 zeros (the paper's own analysis only
uses :math:`\\mathcal{X}_2` vs :math:`\\mathcal{X}_3`); truncation
conditions μ and can only reduce the measured cost, so the reported
growth is conservative.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.analysis import conditional_information_cost
from ..lowerbounds.hard_distribution import and_hard_distribution
from ..store.store import ResultStore
from ..store.sweep import SweepGrid
from ..protocols.and_protocols import (
    FullBroadcastAndProtocol,
    SequentialAndProtocol,
)
from .tables import ExperimentTable

__all__ = ["run", "DEFAULT_KS", "QUICK_KS", "SWEEP", "sequential_and_cic"]

#: The tail (48, 64) roughly octuples the truncated-support enumeration
#: of the old k = 32 ceiling (C(k,<=3) inputs each walked through ~k
#: protocol levels).  Most nodes of those trees hold one input, and the walk
#: finishes them by a per-input DFS.  Measured split of the k = 48 cell
#: (``perfbench/findings.py``, traced, 2-CPU
#: x86-64, Python 3.11): the tree walk's own code is 72-75% of the
#: time (it also carries the tracing wrappers of the callbacks), the
#: protocol callbacks 14% over 695k calls, building the columnar joint
#: in ``core.tree`` 5-6%, ``and_hard_distribution`` 4-6% and the CMI
#: 2%.  Untraced and measured back to back, the cell took 1.7-1.8 s
#: against 3.2-3.3 s with every node in the level arrays, and the whole
#: default sweep 8-9 s against 14-18 s (absolute times on that host
#: swing up to 1.5x from run to run, so only side-by-side ratios carry
#: over).
DEFAULT_KS: Sequence[int] = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)

#: The quick sweep: k up to 16.
QUICK_KS: Sequence[int] = tuple(k for k in DEFAULT_KS if k <= 16)

#: Exact enumeration of the full 2^(k-1) k support is kept below this k;
#: beyond it the <=3-zeros truncation is used.
_FULL_SUPPORT_LIMIT = 12


def sequential_and_cic(k: int) -> float:
    """Exact :math:`CIC_\\mu` of the sequential AND protocol."""
    max_zeros = 3 if k > _FULL_SUPPORT_LIMIT else None
    mu = and_hard_distribution(k, max_zeros=max_zeros)
    return conditional_information_cost(SequentialAndProtocol(k), mu)


def _measure_grid_point(k: int) -> Tuple[float, float, bool]:
    """One E2 grid task: exact CIC of both witness protocols at ``k``.
    Pure, so the sweep parallelizes without changing any value."""
    truncated = k > _FULL_SUPPORT_LIMIT
    max_zeros = 3 if truncated else None
    mu = and_hard_distribution(k, max_zeros=max_zeros)
    cic_seq = conditional_information_cost(SequentialAndProtocol(k), mu)
    cic_full = conditional_information_cost(FullBroadcastAndProtocol(k), mu)
    return cic_seq, cic_full, truncated


def _cell(
    params: Dict[str, Any], seed: Optional[int] = None
) -> Tuple[float, float, bool]:
    return _measure_grid_point(params["k"])


#: The E2 grid: one unseeded cell per ``k``.
SWEEP = SweepGrid(
    experiment="E2",
    cell=_cell,
    default=DEFAULT_KS,
    quick=QUICK_KS,
    params_of=lambda k: {"k": k},
)


def run(
    ks: Sequence[int] = DEFAULT_KS,
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> ExperimentTable:
    """Run the E2 sweep."""
    table = ExperimentTable(
        experiment_id="E2",
        title="Conditional information cost of AND_k under the hard "
              "distribution",
        paper_claim=(
            "Theorem 1: CIC_mu(AND_k, delta) >= Omega(log k) — measured "
            "CIC of witness protocols grows linearly in log2 k"
        ),
        columns=[
            "k", "log2 k", "CIC(seq AND)", "CIC/log2 k",
            "CIC(full bcast)", "truncated",
        ],
    )
    ratios = []
    measurements = SWEEP.map(ks, store=store, workers=workers)
    for k, (cic_seq, cic_full, truncated) in zip(ks, measurements):
        log2k = math.log2(k)
        ratio = cic_seq / log2k if log2k > 0 else float("nan")
        if log2k > 0:
            ratios.append(ratio)
        table.add_row(
            k, log2k, cic_seq, ratio, cic_full, "yes" if truncated else "no"
        )
    table.add_note(
        "CIC/log2 k staying bounded away from 0 (min "
        f"{min(ratios):.3f}) exhibits the Omega(log k) growth; the "
        "sequential protocol reveals the position of the first zero, "
        "worth ~(1/2) log2 k bits under mu"
    )
    from ..lowerbounds.analytic import sequential_and_cic_closed_form

    far = [(k, sequential_and_cic_closed_form(k))
           for k in (256, 4096, 65536)]
    table.add_note(
        "closed form (exact, untruncated) extends the sweep: "
        + ", ".join(
            f"k={k}: CIC={v:.3f} ({v / math.log2(k):.3f}·log2 k)"
            for k, v in far
        )
    )
    return table
