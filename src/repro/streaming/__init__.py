"""Streaming substrate: the one-pass model, exact frequency/distinct
algorithms, and the streaming → blackboard reduction that turns the
paper's disjointness lower bound into a space lower bound (the [1]-style
application the introduction cites)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "algorithms": ("CappedFrequencyCounter", "DistinctElementsBitmap"),
    "model": ("StreamingAlgorithm", "StreamRun", "run_stream"),
    "reduction": ("StreamingSimulationProtocol", "space_lower_bound"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "StreamingAlgorithm",
    "StreamRun",
    "run_stream",
    "CappedFrequencyCounter",
    "DistinctElementsBitmap",
    "StreamingSimulationProtocol",
    "space_lower_bound",
]
