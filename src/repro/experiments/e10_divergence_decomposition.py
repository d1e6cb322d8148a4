"""E10 — Lemma 2 and Eq. (3)–(4): the per-player divergence accounting.

Two exact checks across ``k``:

1. **Lemma 2**: the sum over players of the expected posterior-vs-prior
   divergences never exceeds :math:`I(\\Pi; X \\mid Z)` — computed
   exactly for the sequential and noisy AND protocols under :math:`\\mu`.
2. **Eq. (3)–(4)**: the exact divergence of a "surprised" posterior
   (:math:`\\Pr[X_i = 0] = p` vs the :math:`1/k` prior) against the
   closed-form lower bound :math:`p \\log_2 k - H(p)` — the step that
   converts the Lemma 5 pointing into :math:`\\Omega(\\log k)` bits.
"""

from __future__ import annotations

from typing import Sequence

from ..core.analysis import conditional_transcript_joint
from ..information.entropy import conditional_mutual_information
from ..lowerbounds.hard_distribution import and_hard_distribution
from ..lowerbounds.posterior import (
    divergence_lower_bound,
    divergence_of_surprised_posterior,
    per_player_divergence_sum,
)
from ..protocols.and_protocols import (
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)
from .tables import ExperimentTable

__all__ = ["run", "DEFAULT_KS"]

DEFAULT_KS: Sequence[int] = (3, 4, 5, 6, 8)

#: The surprised posterior ``Pr[X_i = 0] = p`` of the Eq. (4) columns.
POSTERIOR = 0.5


def run(ks: Sequence[int] = DEFAULT_KS) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E10",
        title="Lemma 2 decomposition and the Eq. (3)-(4) divergence bound",
        paper_claim=(
            "Lemma 2: sum_i E D(mu(X_i | Pi, Z) || mu(X_i | Z)) <= "
            "I(Pi; X | Z); Eq. (4): a posterior p against a 1/k prior is "
            "worth >= p log2 k - H(p) bits"
        ),
        columns=[
            "k", "I(Pi;X|Z) seq", "sum_i D seq", "holds",
            "I(Pi;X|Z) noisy", "sum_i D noisy", "holds ",
            "exact D(p=0.5 vs 1/k)", "p lg k - H(p)",
        ],
    )
    for k in ks:
        mu = and_hard_distribution(k)
        row = [k]
        for protocol in (
            SequentialAndProtocol(k),
            NoisySequentialAndProtocol(k, 0.2),
        ):
            joint = conditional_transcript_joint(protocol, mu)
            cmi = conditional_mutual_information(
                joint, "transcript", "inputs", "aux"
            )
            decomposed = per_player_divergence_sum(joint, k)
            if decomposed > cmi + 1e-9:
                raise AssertionError(
                    f"Lemma 2 violated for {type(protocol).__name__}, k={k}"
                )
            row.extend([cmi, decomposed, "yes"])
        exact = divergence_of_surprised_posterior(POSTERIOR, k)
        bound = divergence_lower_bound(POSTERIOR, k)
        if exact < bound - 1e-9:
            raise AssertionError(f"Eq. (4) violated at k={k}")
        row.extend([exact, bound])
        table.add_row(*row)
    table.add_note(
        "both inequalities hold exactly at every k; the last two columns "
        "grow like (1/2) log2 k, the per-pointing information value"
    )
    return table
