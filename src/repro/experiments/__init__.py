"""The experiment suite: one module per paper claim (see DESIGN.md's
experiment index).  Each module exposes ``run(...) -> ExperimentTable``;
the benchmark harness in ``benchmarks/`` times representative kernels and
writes the rendered tables to ``benchmarks/results/``."""

from . import (
    e1_disjointness_scaling,
    e2_and_information,
    e3_good_transcripts,
    e4_omega_k,
    e5_gap,
    e6_amortized,
    e7_sampling_cost,
    e8_figure1,
    e9_product_tightness,
    e10_divergence_decomposition,
    e11_pointwise_or,
    e12_streaming_space,
    e13_optimal_frontier,
    e14_optimal_information,
    e15_promise,
    e16_cross_model,
)
from .tables import ExperimentTable
from .workloads import partition_instance, random_instance

ALL_EXPERIMENTS = {
    "E1": e1_disjointness_scaling.run,
    "E2": e2_and_information.run,
    "E3": e3_good_transcripts.run,
    "E4": e4_omega_k.run,
    "E5": e5_gap.run,
    "E6": e6_amortized.run,
    "E7": e7_sampling_cost.run,
    "E8": e8_figure1.run,
    "E9": e9_product_tightness.run,
    "E10": e10_divergence_decomposition.run,
    "E11": e11_pointwise_or.run,
    "E12": e12_streaming_space.run,
    "E13": e13_optimal_frontier.run,
    "E14": e14_optimal_information.run,
    "E15": e15_promise.run,
    "E16": e16_cross_model.run,
}

__all__ = [
    "ExperimentTable",
    "ALL_EXPERIMENTS",
    "partition_instance",
    "random_instance",
]
