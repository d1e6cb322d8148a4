"""The broadcast (shared blackboard) model: protocol abstraction, runner,
exact protocol-tree analysis, information-cost functionals, and task
definitions (Section 3 of the paper)."""

from .analysis import (
    conditional_information_cost,
    conditional_transcript_joint,
    distributional_error,
    expected_communication,
    external_information_cost,
    internal_information_cost,
    transcript_entropy,
    transcript_joint,
    worst_case_communication,
    worst_case_error,
)
from .model import (
    Message,
    Protocol,
    ProtocolViolation,
    Transcript,
    check_prefix_free,
)
from .runner import ProtocolRun, estimate_error, max_communication, run_protocol
from .tasks import (
    Task,
    all_boolean_inputs,
    and_task,
    boolean_inputs_with_zero_count,
    disjointness_task,
    majority_task,
    mask_to_set,
    or_task,
    set_to_mask,
    union_task,
    xor_task,
)
from .tree import (
    MessageDistributionMemo,
    batched_joint_transcript_distribution,
    joint_transcript_distribution,
    reachable_transcripts,
    transcript_distribution,
    transcript_distributions,
)
from .inspect import (
    annotate_transcript,
    render_information_profile,
    render_protocol_tree,
)
from .montecarlo import InformationEstimate, estimate_information_cost
from .profile import RoundInformation, information_profile
from .rounds import (
    disjointness_rounds_lower_bound,
    disjointness_rounds_weak_bound,
    rounds_lower_bound,
)
from .validate import ValidationReport, reachable_boards, validate_protocol

__all__ = [
    "Message",
    "Transcript",
    "Protocol",
    "ProtocolViolation",
    "check_prefix_free",
    "ProtocolRun",
    "run_protocol",
    "estimate_error",
    "max_communication",
    "transcript_distribution",
    "transcript_distributions",
    "joint_transcript_distribution",
    "batched_joint_transcript_distribution",
    "MessageDistributionMemo",
    "reachable_transcripts",
    "transcript_joint",
    "conditional_transcript_joint",
    "external_information_cost",
    "conditional_information_cost",
    "internal_information_cost",
    "transcript_entropy",
    "distributional_error",
    "worst_case_error",
    "expected_communication",
    "worst_case_communication",
    "Task",
    "and_task",
    "or_task",
    "xor_task",
    "majority_task",
    "disjointness_task",
    "union_task",
    "all_boolean_inputs",
    "boolean_inputs_with_zero_count",
    "set_to_mask",
    "mask_to_set",
    "ValidationReport",
    "validate_protocol",
    "reachable_boards",
    "rounds_lower_bound",
    "disjointness_rounds_lower_bound",
    "disjointness_rounds_weak_bound",
    "RoundInformation",
    "information_profile",
    "render_protocol_tree",
    "annotate_transcript",
    "render_information_profile",
    "InformationEstimate",
    "estimate_information_cost",
]
