"""E3 — Lemma 5: most ``π_2`` mass sits on transcripts that "point".

Runs the full Section 4.1 transcript classification on concrete AND
protocols and reports, per ``k``:

* the :math:`\\pi_2` mass of the good set :math:`L` and of
  :math:`L' \\subseteq L`;
* the mass on which some :math:`\\alpha_i \\ge c\\,k` (the transcript
  points at a player whose posterior of holding 0 is constant);
* the minimum of :math:`\\sum_i \\alpha_i` over :math:`L` against the
  Eq. (6) bound :math:`(\\sqrt{C}/2) k`.

Lemma 5 predicts all of these stay bounded away from the trivial values
as ``k`` grows.  We use a small-noise randomized protocol so the α's are
finite and the classification non-trivial (a zero-error protocol points
with α = ∞ everywhere, which is the degenerate confirmation).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..lowerbounds.transcripts import analyze_good_transcripts
from ..protocols.and_protocols import (
    NoisySequentialAndProtocol,
    SequentialAndProtocol,
)
from .tables import ExperimentTable

__all__ = ["run", "DEFAULT_KS"]

DEFAULT_KS: Sequence[int] = (3, 4, 5, 6, 8, 10)

#: Noise of the randomized protocol: each written bit flips with it.
FLIP_PROB = 0.02
#: The good-set constant ``C`` of Section 4.1.
C = 4.0
#: "Pointing" means some ``alpha_i >= POINTING_CONSTANT * k``.
POINTING_CONSTANT = 2.0


def run(ks: Sequence[int] = DEFAULT_KS) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E3",
        title="Lemma 5 good-transcript analysis (noisy sequential AND)",
        paper_claim=(
            "Lemma 5: a constant pi_2-fraction of transcripts outputs 0, "
            "strongly prefers X_2, and points at a player with "
            "alpha_i = Omega(k)"
        ),
        columns=[
            "k", "pi2(L)", "pi2(L')", "pi2(B0)", "pi2(B1)",
            "pointing mass", "min sum alpha over L", "Eq.(6) bound",
        ],
    )
    # The noisy protocol's alpha for a player that wrote 0 is
    # (1-eps)/eps; "pointing" uses c*k with c chosen so the threshold is
    # meaningful for every k in range while staying Omega(k).
    for k in ks:
        protocol = NoisySequentialAndProtocol(k, FLIP_PROB)
        report = analyze_good_transcripts(protocol, C=C)
        eq6_bound = math.sqrt(C) / 2.0 * k
        table.add_row(
            k,
            report.pi2_mass_L,
            report.pi2_mass_L_prime,
            report.pi2_mass_B0,
            report.pi2_mass_B1,
            report.pointing_mass(POINTING_CONSTANT),
            report.minimum_sum_alpha_over_L(),
            eq6_bound,
        )
    # Degenerate anchor: the zero-error protocol points with alpha = inf.
    exact = analyze_good_transcripts(SequentialAndProtocol(max(ks)), C=C)
    table.add_note(
        "zero-error sequential AND at k="
        f"{max(ks)}: pi2(L) = {exact.pi2_mass_L:.3f}, pointing mass at "
        f"alpha >= 1000k is {exact.pointing_mass(1000.0):.3f} (alpha = inf "
        "for the player that wrote the zero)"
    )
    table.add_note(
        f"pointing mass = pi2 fraction of L' with max_i alpha_i >= "
        f"{POINTING_CONSTANT}*k"
    )
    return table
