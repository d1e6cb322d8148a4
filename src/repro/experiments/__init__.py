"""The experiment suite: one module per paper claim (see DESIGN.md's
experiment index).  Each module exposes ``run(...) -> ExperimentTable``;
the benchmark harness in ``benchmarks/`` times representative kernels and
writes the rendered tables to ``benchmarks/results/``.

:data:`ALL_EXPERIMENTS` maps each experiment id to its module's ``run``
and imports the module on the first lookup of its id, so importing this
package loads no experiment."""

from collections.abc import Mapping
from importlib import import_module
from typing import Callable, Iterator

from .._lazy import lazy_exports

_EXPORTS = {
    "tables": ("ExperimentTable",),
    "workloads": ("partition_instance", "random_instance"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)


class _Experiments(Mapping):
    """Read-only ``{experiment id: run}``, importing an experiment's
    module when its id is looked up."""

    def __init__(self, modules: Mapping[str, str]) -> None:
        self._modules = dict(modules)

    def __getitem__(self, eid: str) -> Callable:
        return import_module(f"{__name__}.{self._modules[eid]}").run

    def __contains__(self, eid: object) -> bool:
        return eid in self._modules

    def __iter__(self) -> Iterator[str]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


ALL_EXPERIMENTS: Mapping[str, Callable] = _Experiments({
    "E1": "e1_disjointness_scaling",
    "E2": "e2_and_information",
    "E3": "e3_good_transcripts",
    "E4": "e4_omega_k",
    "E5": "e5_gap",
    "E6": "e6_amortized",
    "E7": "e7_sampling_cost",
    "E8": "e8_figure1",
    "E9": "e9_product_tightness",
    "E10": "e10_divergence_decomposition",
    "E11": "e11_pointwise_or",
    "E12": "e12_streaming_space",
    "E13": "e13_optimal_frontier",
    "E14": "e14_optimal_information",
    "E15": "e15_promise",
    "E16": "e16_cross_model",
})

__all__ = [
    "ExperimentTable",
    "ALL_EXPERIMENTS",
    "partition_instance",
    "random_instance",
]
