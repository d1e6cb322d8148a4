"""The Lemma 5 "good transcripts" analysis.

Section 4.1 of the paper shows that any low-error protocol for
:math:`\\mathrm{AND}_k` has a set :math:`L'` of transcripts that

1. carries most of the mass of :math:`\\pi_2` (the transcript
   distribution conditioned on the input having exactly two zeros),
2. outputs 0,
3. "strongly prefers" two-zero inputs over :math:`1^k`
   (:math:`\\pi_2(\\ell) \\ge C \\prod_i q^\\ell_{i,1}`),
4. does not prefer three-zero inputs
   (:math:`\\pi_2(\\ell) \\ge \\frac12 \\pi_3(\\ell)`),

and that every such transcript *points at a player*: some
:math:`\\alpha^\\ell_i = \\Omega(k)`, i.e. the posterior probability that
player ``i`` holds a zero is constant even though the prior was
:math:`1/k`.

:func:`analyze_good_transcripts` carries out this entire analysis
*numerically and exactly* for a concrete protocol: it enumerates the
transcripts reachable from two-zero inputs, computes their Lemma 3
factors, classifies them into :math:`L`, :math:`B_0`, :math:`B_1`,
:math:`L'`, and reports the pointing statistics.  The benchmark E3
reports, per ``k``, the :math:`\\pi_2` mass of :math:`L'` and the mass on
which :math:`\\max_i \\alpha_i \\ge c\\,k` — the paper predicts both stay
bounded away from 0 as ``k`` grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.model import Protocol, Transcript
from ..core.tasks import boolean_inputs_with_zero_count
from ..core.tree import transcript_distributions
from .decomposition import TranscriptFactors, transcript_factors

__all__ = ["TranscriptClassification", "GoodTranscriptReport",
           "analyze_good_transcripts"]


@dataclass(frozen=True)
class TranscriptClassification:
    """Per-transcript facts extracted by the Lemma 5 analysis."""

    transcript: Transcript
    output: int
    pi2: float                   # Pr[Π = ℓ | X ∈ X_2]
    pi3: float                   # Pr[Π = ℓ | X ∈ X_3]
    all_ones_probability: float  # Π_i q_{i,1} = Pr[Π(1^k) = ℓ]
    alphas: Tuple[float, ...]    # α_i = q_{i,0} / q_{i,1}
    in_L: bool
    in_L_prime: bool

    @property
    def max_alpha(self) -> float:
        finite = [a for a in self.alphas if not math.isnan(a)]
        return max(finite) if finite else math.nan

    @property
    def sum_alpha(self) -> float:
        finite = [a for a in self.alphas if not math.isnan(a)]
        if any(math.isinf(a) for a in finite):
            return math.inf
        return sum(finite)


@dataclass(frozen=True)
class GoodTranscriptReport:
    """Aggregate result of the Lemma 5 analysis for one protocol."""

    k: int
    C: float
    classifications: Tuple[TranscriptClassification, ...]
    pi2_mass_L: float        # π_2(L)
    pi2_mass_B1: float       # π_2(transcripts with output 1)
    pi2_mass_B0: float       # π_2(output-0 transcripts outside L)
    pi2_mass_L_prime: float  # π_2(L')

    def pointing_mass(self, c: float) -> float:
        """The :math:`\\pi_2` mass of :math:`L'` transcripts with
        :math:`\\max_i \\alpha_i \\ge c\\,k` — the paper's conclusion is
        that this is :math:`\\Omega(1)` for a suitable constant ``c``."""
        threshold = c * self.k
        return sum(
            cl.pi2
            for cl in self.classifications
            if cl.in_L_prime and cl.max_alpha >= threshold
        )

    def minimum_sum_alpha_over_L(self) -> float:
        """:math:`\\min_{\\ell \\in L} \\sum_i \\alpha^\\ell_i`; Eq. (6)
        predicts at least :math:`(\\sqrt{C}/2)\\,k`."""
        values = [
            cl.sum_alpha for cl in self.classifications if cl.in_L
        ]
        return min(values) if values else math.nan


def analyze_good_transcripts(
    protocol: Protocol,
    *,
    C: float = 16.0,
) -> GoodTranscriptReport:
    """Run the full Section 4.1 transcript classification for a concrete
    :math:`\\mathrm{AND}_k` protocol.

    Enumerates every transcript reachable from a two-zero input, computes
    its Lemma 3 factors and from them :math:`\\pi_2`, :math:`\\pi_3`, the
    all-ones probability, and the :math:`\\alpha` coefficients; then
    classifies the transcript into :math:`L` / :math:`B_0` / :math:`B_1`
    and :math:`L'` per the paper's definitions.
    """
    k = protocol.num_players
    if k < 3:
        raise ValueError(
            "the X_2-vs-X_3 analysis needs at least 3 players, got "
            f"{k}"
        )
    two_zero_inputs = list(boolean_inputs_with_zero_count(k, 2))
    three_zero_inputs = list(boolean_inputs_with_zero_count(k, 3))

    # Enumerate the union of supports over two-zero inputs, from one
    # shared walk.
    transcripts: Dict[Transcript, None] = {}
    for law in transcript_distributions(protocol, two_zero_inputs).values():
        for transcript in law.support():
            transcripts.setdefault(transcript)

    input_values = [[0, 1]] * k

    # Vectorized Lemma 3: with 0/1 inputs the per-transcript
    # factors tabulate as a (k, 2) array and each class-conditioned
    # probability is one product-reduction over the class matrix —
    # bit-identical to the per-input scalar fold (same multiplication
    # and summation order).
    from ..perf import kernels

    np_ = kernels.require_numpy()
    x2_matrix = np_.array(two_zero_inputs, dtype=np_.int64)
    x3_matrix = np_.array(three_zero_inputs, dtype=np_.int64)

    classifications: List[TranscriptClassification] = []
    mass_L = mass_B0 = mass_B1 = mass_L_prime = 0.0
    for transcript in transcripts:
        factors = transcript_factors(protocol, transcript, input_values)
        factor_table = [
            np_.array([factor[0], factor[1]], dtype=np_.float64)
            for factor in factors.factors
        ]
        pi2 = kernels.class_conditioned_probabilities(factor_table, x2_matrix)
        pi3 = kernels.class_conditioned_probabilities(factor_table, x3_matrix)
        all_ones = factors.probability(tuple([1] * k))
        state = protocol.replay_state(transcript)
        output = protocol.output(state, transcript)
        alphas = tuple(
            factors.alpha(i, zero=0, one=1) for i in range(k)
        )
        in_L = output == 0 and pi2 >= C * all_ones
        in_L_prime = in_L and pi2 >= 0.5 * pi3
        classification = TranscriptClassification(
            transcript=transcript,
            output=output,
            pi2=pi2,
            pi3=pi3,
            all_ones_probability=all_ones,
            alphas=alphas,
            in_L=in_L,
            in_L_prime=in_L_prime,
        )
        classifications.append(classification)
        if output != 0:
            mass_B1 += pi2
        elif not in_L:
            mass_B0 += pi2
        else:
            mass_L += pi2
            if in_L_prime:
                mass_L_prime += pi2
    return GoodTranscriptReport(
        k=k,
        C=C,
        classifications=tuple(classifications),
        pi2_mass_L=mass_L,
        pi2_mass_B1=mass_B1,
        pi2_mass_B0=mass_B0,
        pi2_mass_L_prime=mass_L_prime,
    )


def _class_conditioned_probability(
    factors: TranscriptFactors, inputs: Sequence[Tuple[int, ...]]
) -> float:
    """:math:`\\Pr[\\Pi = \\ell \\mid X \\in \\text{class}]` for a
    uniform input class (as :math:`\\mathcal{X}_2, \\mathcal{X}_3` are
    under :math:`\\mu` given their zero count), by the per-input scalar
    fold: the reference ``kernels.class_conditioned_probabilities`` is
    tested against."""
    if not inputs:
        raise ValueError("empty input class")
    return sum(factors.probability(x) for x in inputs) / len(inputs)
