"""E4 — Lemma 6: the ``Ω(k)`` communication cliff for ``AND_k``.

Sweeps the speaking budget of truncated sequential-AND protocols and
reports, per ``(k, budget)``, the exact distributional error under
:math:`\\mu_{\\epsilon'}` against the forced bound
:math:`(1 - \\epsilon')(1 - \\ell/k)`.

Lemma 6's shape: for any target error :math:`\\epsilon`, the error stays
above :math:`\\epsilon` until the budget reaches
:math:`(1 - \\epsilon/(1-\\epsilon'))\\,k` — i.e. a protocol must let a
constant fraction of the ``k`` players speak, so its communication is
:math:`\\Omega(k)`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..lowerbounds.fooling import TruncatedAndProtocol, lemma6_report
from ..store.store import ResultStore
from ..store.sweep import SweepGrid
from .tables import ExperimentTable

__all__ = ["run", "DEFAULT_KS", "QUICK_KS", "SWEEP", "budget_grid"]

DEFAULT_KS: Sequence[int] = (16, 64, 256)

#: The quick sweep drops the k = 256 cells.
QUICK_KS: Sequence[int] = (16, 64)

EPS_PRIME = 0.2
BUDGET_FRACTIONS: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.875, 1.0)


def budget_grid(
    ks: Sequence[int],
    *,
    eps_prime: float = EPS_PRIME,
    budget_fractions: Sequence[float] = BUDGET_FRACTIONS,
) -> List[Dict[str, Any]]:
    """The cell params of the sweep over ``ks``: every budget fraction
    at every ``k``.  ``eps_prime`` changes the measured errors, so it is
    part of each cell's address alongside the grid point."""
    return [
        {"k": k, "budget": round(fraction * k), "eps_prime": eps_prime}
        for k in ks
        for fraction in budget_fractions
    ]


def _cell(
    params: Dict[str, Any], seed: Optional[int] = None
) -> Tuple[float, float, bool]:
    """One E4 grid cell: the exact Lemma 6 report at ``(k, budget)``.
    Pure, so the sweep parallelizes without changing any value."""
    report = lemma6_report(
        TruncatedAndProtocol(params["k"], params["budget"]),
        eps_prime=params["eps_prime"],
    )
    return report.error_lower_bound, report.exact_error, report.bound_holds


#: The E4 grid: its items are the cell params themselves.
SWEEP = SweepGrid(
    experiment="E4",
    cell=_cell,
    default=budget_grid(DEFAULT_KS),
    quick=budget_grid(QUICK_KS),
)


def run(
    ks: Sequence[int] = DEFAULT_KS,
    *,
    eps_prime: float = EPS_PRIME,
    eps: float = 0.1,
    budget_fractions: Sequence[float] = BUDGET_FRACTIONS,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> ExperimentTable:
    """Run the E4 sweep."""
    table = ExperimentTable(
        experiment_id="E4",
        title="Lemma 6 error cliff: truncated AND protocols under "
              "mu_{eps'}",
        paper_claim=(
            "Lemma 6: a deterministic protocol in which fewer than "
            "(1 - eps/(1-eps')) k players speak on 1^k errs with "
            "probability > eps, so CC_eps(AND_k) = Omega(k)"
        ),
        columns=[
            "k", "budget", "budget/k", "forced error >=",
            "exact error", "error > eps?",
        ],
    )
    threshold_fraction = 1.0 - eps / (1.0 - eps_prime)
    grid = budget_grid(
        ks, eps_prime=eps_prime, budget_fractions=budget_fractions
    )
    measurements = SWEEP.map(grid, store=store, workers=workers)
    by_point = {
        (params["k"], params["budget"]): measured
        for params, measured in zip(grid, measurements)
    }
    crossovers: List[Tuple[int, float]] = []
    for k in ks:
        first_below = None
        for fraction in budget_fractions:
            budget = round(fraction * k)
            error_lower_bound, exact_error, bound_holds = by_point[(k, budget)]
            above = exact_error > eps + 1e-9
            table.add_row(
                k, budget, budget / k,
                error_lower_bound,
                exact_error,
                "yes" if above else "no",
            )
            if not bound_holds:
                raise AssertionError(
                    f"Lemma 6 bound violated at k={k}, budget={budget}"
                )
            if not above and first_below is None:
                first_below = budget / k
        crossovers.append((k, first_below if first_below is not None else 1.0))
    table.add_note(
        f"eps = {eps}, eps' = {eps_prime}: Lemma 6 predicts the error "
        f"stays above eps until budget/k ~ {threshold_fraction:.3f}; "
        "measured crossovers: "
        + ", ".join(f"k={k}: {frac:.3f}" for k, frac in crossovers)
    )
    return table
