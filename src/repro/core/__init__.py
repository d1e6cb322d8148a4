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
from .runner import ProtocolRun, run_protocol
from .tasks import (
    Task,
    all_boolean_inputs,
    and_task,
    boolean_inputs_with_zero_count,
    disjointness_task,
    or_task,
    set_to_mask,
    union_task,
)
from .tree import (
    MessageDistributionMemo,
    batched_joint_transcript_distribution,
    joint_transcript_distribution,
    transcript_distribution,
    transcript_distributions,
)
from .inspect import (
    annotate_transcript,
    render_information_profile,
    render_protocol_tree,
)
from .profile import RoundInformation, information_profile
from .validate import ValidationReport, reachable_boards, validate_protocol

__all__ = [
    "Message",
    "Transcript",
    "Protocol",
    "ProtocolViolation",
    "check_prefix_free",
    "ProtocolRun",
    "run_protocol",
    "transcript_distribution",
    "transcript_distributions",
    "joint_transcript_distribution",
    "batched_joint_transcript_distribution",
    "MessageDistributionMemo",
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
    "disjointness_task",
    "union_task",
    "all_boolean_inputs",
    "boolean_inputs_with_zero_count",
    "set_to_mask",
    "ValidationReport",
    "validate_protocol",
    "reachable_boards",
    "RoundInformation",
    "information_profile",
    "render_protocol_tree",
    "annotate_transcript",
    "render_information_profile",
]
