"""The Section 4 lower-bound machinery: hard distributions, the Lemma 3
product decomposition, Lemma 4 posteriors and the Eq. (3)–(4) divergence
bounds, the Lemma 5 good-transcript analysis, the Lemma 6 Ω(k) fooling
argument, and the Lemma 1 direct sum."""

from .analytic import sequential_and_cic_closed_form
from .decomposition import TranscriptFactors, transcript_factors
from .direct_sum import (
    InformationAdditivityReport,
    coordinate_information_split,
    information_additivity_report,
    verify_superadditivity,
)
from .fooling import (
    Lemma6Report,
    TruncatedAndProtocol,
    lemma6_report,
    speakers_on_all_ones,
)
from .hard_distribution import (
    and_hard_distribution,
    and_hard_input_marginal,
    disjointness_hard_distribution,
    lemma6_distribution,
)
from .optimal_error import (
    certify_lemma6_optimality,
    error_budget_curve,
    optimal_distributional_error,
)
from .optimal_information import (
    minimum_zero_error_cic,
    minimum_zero_error_external_ic,
)
from .posterior import (
    divergence_lower_bound,
    divergence_of_surprised_posterior,
    per_player_divergence_sum,
    posterior_zero_given_not_special,
)
from .transcripts import (
    GoodTranscriptReport,
    TranscriptClassification,
    analyze_good_transcripts,
)

__all__ = [
    "sequential_and_cic_closed_form",
    "and_hard_distribution",
    "and_hard_input_marginal",
    "disjointness_hard_distribution",
    "lemma6_distribution",
    "TranscriptFactors",
    "transcript_factors",
    "posterior_zero_given_not_special",
    "divergence_of_surprised_posterior",
    "divergence_lower_bound",
    "per_player_divergence_sum",
    "TranscriptClassification",
    "GoodTranscriptReport",
    "analyze_good_transcripts",
    "Lemma6Report",
    "lemma6_report",
    "speakers_on_all_ones",
    "TruncatedAndProtocol",
    "optimal_distributional_error",
    "error_budget_curve",
    "certify_lemma6_optimality",
    "minimum_zero_error_cic",
    "minimum_zero_error_external_ic",
    "coordinate_information_split",
    "verify_superadditivity",
    "InformationAdditivityReport",
    "information_additivity_report",
]
