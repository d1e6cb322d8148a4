"""The Section 4 lower-bound machinery: hard distributions, the Lemma 3
product decomposition, Lemma 4 posteriors and the Eq. (3)–(4) divergence
bounds, the Lemma 5 good-transcript analysis, the Lemma 6 Ω(k) fooling
argument, and the Lemma 1 direct sum."""

from .._lazy import lazy_exports

_EXPORTS = {
    "analytic": ("sequential_and_cic_closed_form",),
    "decomposition": ("TranscriptFactors", "transcript_factors"),
    "direct_sum": (
        "InformationAdditivityReport",
        "coordinate_information_split",
        "information_additivity_report",
        "verify_superadditivity",
    ),
    "fooling": (
        "Lemma6Report",
        "TruncatedAndProtocol",
        "lemma6_report",
        "speakers_on_all_ones",
    ),
    "hard_distribution": (
        "and_hard_distribution",
        "and_hard_input_marginal",
        "disjointness_hard_distribution",
        "lemma6_distribution",
    ),
    "optimal_error": (
        "certify_lemma6_optimality",
        "error_budget_curve",
        "optimal_distributional_error",
    ),
    "optimal_information": (
        "minimum_zero_error_cic",
        "minimum_zero_error_external_ic",
    ),
    "posterior": (
        "divergence_lower_bound",
        "divergence_of_surprised_posterior",
        "per_player_divergence_sum",
        "posterior_zero_given_not_special",
    ),
    "transcripts": (
        "GoodTranscriptReport",
        "TranscriptClassification",
        "analyze_good_transcripts",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
