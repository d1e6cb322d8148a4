"""E14 (extension) — certified minimum information cost of AND_k.

The strongest form of the Theorem 1 evidence this reproduction offers:
for the *zero-error deterministic* protocol class, the rectangle dynamic
program of :mod:`repro.lowerbounds.optimal_information` computes the
exact minimum of :math:`CIC_\\mu = H(\\Pi \\mid Z)` over **all**
protocols in the class.  The table shows:

* the optimum grows as :math:`\\approx \\tfrac12 \\log_2 k` — Theorem
  1's :math:`\\Omega(\\log k)` realized as a certified equality for this
  class;
* the Section 6 sequential protocol *attains* the optimum at every ``k``
  (it is exactly information-optimal, not just an upper-bound witness);
* the analogous external-IC optima under uniform inputs, with the XOR
  task as the full-revelation contrast.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.analysis import conditional_information_cost
from ..lowerbounds.hard_distribution import and_hard_distribution
from ..lowerbounds.optimal_information import (
    minimum_zero_error_cic,
    minimum_zero_error_external_ic,
)
from ..protocols.and_protocols import SequentialAndProtocol
from ..store.store import ResultStore
from ..store.sweep import SweepGrid
from .tables import ExperimentTable

__all__ = ["run", "DEFAULT_KS", "QUICK_KS", "SWEEP", "EXTERNAL_SWEEP"]

#: k = 12 puts the rectangle DP at 3^12 · 12 ≈ 6.4M, just under the
#: vectorized kernel's ``_E14_CELL_CAP`` on ``3**k * z_count``; above it
#: the memoized recursion takes over.  The kernel's index tables hold
#: 3^12 entries and its per-z masses only the 2^12 rectangles without a
#: known 0 (about 15 MB traced at k = 12).  On a 2-CPU x86-64 machine the
#: whole default table takes about 0.4 s; the recursion certifies
#: identical optima for it in about 24 s
#: (``benchmarks/test_reference_engines.py``).
DEFAULT_KS: Sequence[int] = (2, 3, 4, 6, 8, 10, 12)

#: The quick sweep: k up to 8.
QUICK_KS: Sequence[int] = tuple(k for k in DEFAULT_KS if k <= 8)


def _cell(
    params: Dict[str, Any], seed: Optional[int] = None
) -> Tuple[float, float]:
    """One E14 grid cell: the certified optimum and the sequential
    protocol's CIC at ``k``.  Pure, so the sweep parallelizes (and
    caches) without changing any value."""
    k = params["k"]
    optimum = minimum_zero_error_cic(k)
    sequential = conditional_information_cost(
        SequentialAndProtocol(k), and_hard_distribution(k)
    )
    return optimum, sequential


def _external_cell(
    params: Dict[str, Any], seed: Optional[int] = None
) -> Tuple[float, float]:
    """The external-IC contrast cell: certified AND vs XOR optima under
    uniform inputs at ``k``."""
    k = params["k"]
    and_external = minimum_zero_error_external_ic(
        k, lambda x: int(all(x)), [0.5] * k
    )
    xor_external = minimum_zero_error_external_ic(
        k, lambda x: sum(x) % 2, [0.5] * k
    )
    return and_external, xor_external


def _k_params(k: int) -> Dict[str, int]:
    return {"k": k}


#: The main E14 grid: one unseeded cell per ``k``.
SWEEP = SweepGrid(
    experiment="E14",
    cell=_cell,
    default=DEFAULT_KS,
    quick=QUICK_KS,
    params_of=_k_params,
)

#: The single external-IC contrast cell, at the sweep's largest ``k``.
EXTERNAL_SWEEP = SweepGrid(
    experiment="E14-external",
    cell=_external_cell,
    default=(max(DEFAULT_KS),),
    quick=(max(QUICK_KS),),
    params_of=_k_params,
)


def run(
    ks: Sequence[int] = DEFAULT_KS,
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> ExperimentTable:
    """Run the E14 sweep."""
    table = ExperimentTable(
        experiment_id="E14",
        title="Certified minimum information cost of AND_k "
              "(zero-error deterministic class)",
        paper_claim=(
            "Theorem 1: CIC_mu(AND_k) = Omega(log k); here the exact "
            "minimum over ALL zero-error deterministic protocols, "
            "computed by rectangle DP"
        ),
        columns=[
            "k", "min CIC (all protocols)", "seq AND CIC", "optimal?",
            "min CIC / log2 k",
        ],
    )
    ratios = []
    measurements = SWEEP.map(ks, store=store, workers=workers)
    for k, (optimum, sequential) in zip(ks, measurements):
        ratio = optimum / math.log2(k)
        ratios.append(ratio)
        table.add_row(
            k, optimum, sequential,
            "yes" if abs(optimum - sequential) < 1e-9 else "NO",
            ratio,
        )
    table.add_note(
        "the certified optimum tracks (1/2) log2 k (ratios "
        f"{min(ratios):.3f}-{max(ratios):.3f}) and is attained by the "
        "sequential protocol at every k: Theorem 1's Omega(log k) holds "
        "with certified constant ~1/2 in this class"
    )
    k = max(ks)
    # A single cell; never worth a process pool.
    ((and_external, xor_external),) = EXTERNAL_SWEEP.map([k], store=store)
    table.add_note(
        f"external-IC optima under uniform inputs at k={k}: "
        f"AND needs {and_external:.4f} bits, XOR needs "
        f"{xor_external:.4f} (= k, full revelation)"
    )
    return table
