"""Interactive compression in the broadcast model (Section 6): the
Lemma 7 rejection-sampling message simulation, one-shot compression of a
full protocol, amortized n-fold compression (Theorem 3), and the
information/communication gap instance."""

from .._lazy import lazy_exports

_EXPORTS = {
    "amortized": (
        "AmortizedReport",
        "BatchRecord",
        "compress_parallel_copies",
    ),
    "gap": ("GapReport", "and_gap_report", "lemma6_communication_bound"),
    "one_shot": (
        "CompressedExecution",
        "CompressedRound",
        "ObserverPosterior",
        "compress_execution",
    ),
    "sampling": (
        "NaiveDartResult",
        "SampledMessage",
        "SamplerStepLimitError",
        "SamplingCost",
        "curve_masses",
        "lemma7_cost_bound",
        "run_naive_dart_protocol",
        "simulate_sampling_round",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "SamplingCost",
    "SampledMessage",
    "NaiveDartResult",
    "run_naive_dart_protocol",
    "simulate_sampling_round",
    "SamplerStepLimitError",
    "curve_masses",
    "lemma7_cost_bound",
    "ObserverPosterior",
    "CompressedRound",
    "CompressedExecution",
    "compress_execution",
    "BatchRecord",
    "AmortizedReport",
    "compress_parallel_copies",
    "GapReport",
    "and_gap_report",
    "lemma6_communication_bound",
]
