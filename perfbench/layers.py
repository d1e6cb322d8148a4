"""The traced run: per-layer time from outside the program.

Nothing under ``src/`` is changed.  :meth:`Tracing.install` wraps the public
functions of each layer (the ``repro`` modules) by replacing the
attribute in *every* module that holds it -- ``from ..x import f``
binds ``f`` at import time, so patching only the defining module would
miss those callers -- and wraps the per-node protocol callbacks on the
protocol classes themselves.

Each wrapped call records a span with :class:`repro.obs.RecordingTracer`
(one tracer per thread, because the result server and its clients run
on their own threads).  Self time is computed from
:func:`repro.obs.analysis.build_span_forest`: a span's duration minus
its child spans minus the protocol callbacks that ran directly under
it.  Protocol callbacks are too frequent for a span each; they are
timed by a counting wrapper instead.

Per-element methods (``Board.__len__``, ``Transcript.extend``, ...) are
deliberately left unwrapped: the wrapper would cost more than the
method.  Their cost shows as their caller's self time.  Work done in
worker processes is not traced; the parent's wait for it shows as the
self time of ``perf.grid.map_grid`` (process pool) or ``fabric.sweep``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (metric prefix, module, attribute path).  An attribute path with a
#: dot names a method on a class.  Several entries may share a prefix.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.workloads.random_instance",
     "repro.experiments.workloads", "random_instance"),
    ("core.runner.run_protocol", "repro.core.runner", "run_protocol"),
    ("core.tree.joint_transcript_distribution", "repro.core.tree",
     "joint_transcript_distribution"),
    ("core.tree.transcript_distribution", "repro.core.tree",
     "transcript_distribution"),
    ("core.analysis.conditional_information_cost", "repro.core.analysis",
     "conditional_information_cost"),
    ("core.analysis.external_information_cost", "repro.core.analysis",
     "external_information_cost"),
    ("core.analysis.internal_information_cost", "repro.core.analysis",
     "internal_information_cost"),
    ("core.analysis.transcript_joint", "repro.core.analysis",
     "transcript_joint"),
    ("core.analysis.conditional_transcript_joint", "repro.core.analysis",
     "conditional_transcript_joint"),
    ("core.analysis.expected_communication", "repro.core.analysis",
     "expected_communication"),
    ("core.analysis.distributional_error", "repro.core.analysis",
     "distributional_error"),
    ("perf.kernels.tree_walk_sorted_leaves", "repro.perf.kernels",
     "tree_walk_sorted_leaves"),
    ("perf.kernels.minimum_entropy", "repro.perf.kernels",
     "minimum_entropy"),
    ("perf.kernels.simulate", "repro.perf.kernels",
     "simulate_optimal_disjointness"),
    ("perf.kernels.simulate", "repro.perf.kernels",
     "simulate_naive_disjointness"),
    ("perf.kernels.simulate", "repro.perf.kernels",
     "simulate_trivial_disjointness"),
    ("information.entropy", "repro.information.entropy", "entropy"),
    ("information.mutual_information", "repro.information.entropy",
     "mutual_information"),
    ("information.conditional_mutual_information",
     "repro.information.entropy", "conditional_mutual_information"),
    ("lowerbounds.and_hard_distribution",
     "repro.lowerbounds.hard_distribution", "and_hard_distribution"),
    ("lowerbounds.optimal_information",
     "repro.lowerbounds.optimal_information", "minimum_zero_error_cic"),
    ("lowerbounds.optimal_information",
     "repro.lowerbounds.optimal_information",
     "minimum_zero_error_external_ic"),
    ("coding.subset_unrank", "repro.coding.combinatorial", "subset_unrank"),
    ("topology.run_on_medium", "repro.topology.runtime", "run_on_medium"),
    ("compression.sampling", "repro.compression.sampling",
     "simulate_sampling_round"),
    ("compression.sampling", "repro.compression.sampling",
     "run_naive_dart_protocol"),
    ("compression.sampling", "repro.compression.sampling",
     "expected_round_cost"),
    ("compression.sampling", "repro.compression.sampling",
     "BatchedDartSampler.advance"),
    ("store.get", "repro.store.store", "ResultStore.get"),
    ("store.put", "repro.store.store", "ResultStore.put"),
    ("store.sweep", "repro.store.sweep", "checkpointed_map_grid"),
    ("perf.grid.map_grid", "repro.perf.grid", "map_grid"),
    ("fabric.sweep", "repro.fabric.sweep", "fabric_sweep"),
    ("fabric.sweep", "repro.fabric.sweep", "fabric_checkpointed_map_grid"),
    ("fabric.wire.encode", "repro.fabric.wire", "encode_fabric_frame"),
    ("fabric.wire.decode", "repro.fabric.wire", "decode_fabric_frame"),
    ("fabric.client.get", "repro.fabric.service", "FabricClient.get"),
    ("net.run_networked", "repro.net.runner", "run_networked"),
    ("net.framing.encode", "repro.net.framing", "encode_frame"),
    ("net.framing.decode", "repro.net.framing", "decode_frame"),
) + tuple(
    (f"experiments.{eid}", f"repro.experiments.{module}", "run")
    for eid, module in (
        ("E1", "e1_disjointness_scaling"),
        ("E2", "e2_and_information"),
        ("E4", "e4_omega_k"),
        ("E5", "e5_gap"),
        ("E7", "e7_sampling_cost"),
        ("E10", "e10_divergence_decomposition"),
        ("E14", "e14_optimal_information"),
        ("E16", "e16_cross_model"),
    )
)

#: Counts read off a wrapped call's arguments and result:
#: prefix -> (counter, function of (args, result) -> amount).
OBSERVED: Dict[str, Tuple[Tuple[str, Callable[[tuple, Any], float]], ...]] = {
    "core.runner.run_protocol": (
        ("core.runner.messages", lambda args, result: result.rounds),),
    "topology.run_on_medium": (
        ("topology.messages", lambda args, result: result.rounds),),
    "store.get": (
        ("store.get.bytes", lambda args, result: len(result or b"")),
        ("store.get.hits", lambda args, result: result is not None),
    ),
    "store.put": (("store.put.bytes", lambda args, result: len(args[2])),),
}

#: The per-node hooks of the broadcast and medium protocol contracts.
CALLBACKS = ("initial_state", "advance_state", "next_speaker", "next_edge",
             "message_distribution", "output")

#: Top-level layers, for the per-layer rollup of self time.
LAYERS = ("experiments", "core", "protocols", "information", "lowerbounds",
          "perf", "coding", "compression", "topology", "store", "fabric",
          "net")


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.tracer = None
        self.stack: List[int] = []
        self.in_callback = False
        self.nested_s = 0.0


class Tracing:
    """Installs the wrappers, records, and removes them again."""

    def __init__(self) -> None:
        from repro.obs.trace import RecordingTracer, new_trace_id

        self._tracer_cls = RecordingTracer
        self._trace_id = new_trace_id()
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self.tracers: List[Any] = []
        #: span id (per tracer) -> callback self seconds directly under it.
        self.callback_in: Dict[Tuple[int, int], float] = defaultdict(float)
        self.callback_calls = 0
        self.callback_s = 0.0
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-thread tracer ---------------------------------------------
    def _thread(self) -> _ThreadState:
        state = self._state
        if state.tracer is None:
            state.tracer = self._tracer_cls(trace_id=self._trace_id)
            with self._lock:
                self.tracers.append(state.tracer)
        return state

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        observed = OBSERVED.get(name, ())

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = self._thread()
            in_callback = state.in_callback
            state.in_callback = False
            started = time.perf_counter()
            try:
                with state.tracer.span(name) as span_id:
                    state.stack.append(span_id)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        state.stack.pop()
                if observed:
                    with self._lock:
                        for counter, amount in observed:
                            self.counts[counter] += amount(args, result)
                return result
            finally:
                state.in_callback = in_callback
                if in_callback:
                    state.nested_s += time.perf_counter() - started

        return traced

    def _callback_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            state = self._thread()
            if state.in_callback:  # a callback calling another one
                return fn(*args, **kwargs)
            state.in_callback = True
            nested_before = state.nested_s
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                state.in_callback = False
                own = elapsed - (state.nested_s - nested_before)
                self.callback_calls += 1
                self.callback_s += own
                if state.stack:
                    key = (id(state.tracer), state.stack[-1])
                    self.callback_in[key] += own

        return timed

    # -- install / remove --------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self._thread()  # the calling thread's tracer is the main one
        replacements: Dict[int, Tuple[Callable, Callable]] = {}
        for name, module_name, path in SPANS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method,
                            self._span_wrapper(name, cls.__dict__[method]))
                continue
            original = getattr(module, path)
            replacements[id(original)] = (original,
                                          self._span_wrapper(name, original))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        for cls in _protocol_classes():
            for method in CALLBACKS:
                if method in cls.__dict__:
                    self._patch(cls, method,
                                self._callback_wrapper(cls.__dict__[method]))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """``{prefix: {"calls", "self_s", "total_s"}}`` over all threads,
        plus ``"<root>"`` with the main thread's root-span total."""
        from repro.obs.analysis import build_span_forest

        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        main_roots = 0.0
        main = self.tracers[0] if self.tracers else None
        for tracer in self.tracers:
            for root in build_span_forest(tracer.events):
                if tracer is main:
                    main_roots += root.elapsed_s or 0.0
                for node in root.walk():
                    elapsed = node.elapsed_s or 0.0
                    children = sum(c.elapsed_s or 0.0 for c in node.children)
                    callbacks = self.callback_in.get(
                        (id(tracer), node.span_id), 0.0)
                    entry = totals[node.name]
                    entry["calls"] += 1
                    entry["total_s"] += elapsed
                    entry["self_s"] += elapsed - children - callbacks
        totals["<root>"]["total_s"] = main_roots
        return dict(totals)


def _protocol_classes() -> List[type]:
    """Every broadcast and medium protocol class the program defines."""
    for name in ("repro.protocols", "repro.topology.protocols",
                 "repro.topology.protocol", "repro.lowerbounds.fooling"):
        importlib.import_module(name)
    from repro.core.model import Protocol
    from repro.topology.protocol import MediumProtocol

    seen: List[type] = []
    pending = [Protocol, MediumProtocol]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def _prefixes() -> List[str]:
    seen: List[str] = []
    for name, _, _ in SPANS:
        if name not in seen and not _is_experiment(name):
            seen.append(name)
    return seen


def _is_experiment(name: str) -> bool:
    return name.startswith("experiments.E")


#: Counts taken from the program's own metrics registry:
#: metric -> registry counter (summed over labels).
REGISTRY_COUNTERS = (
    ("perf.kernels.vectorized_calls", "kernel_vectorized_calls"),
    ("perf.grid.tasks", "grid_tasks"),
    ("fabric.bytes_on_wire", "fabric_bytes_on_wire"),
    ("fabric.dispatches", "fabric_cells_dispatched"),
    ("fabric.retries", "fabric_retries"),
    ("net.frames", "net_frames_sent"),
    ("net.bytes_on_wire", "net_bytes_on_wire"),
    ("net.retries", "net_retries"),
    ("bits.protocol", "bits_written"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: Dict[str, str] = {}
    for name, _, _ in SPANS:
        if _is_experiment(name):
            units[f"{name}.wall_s"] = "s"
    for prefix in _prefixes():
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units.update({
        "core.runner.messages": "count",
        "core.runner.us_per_msg": "us",
        "topology.messages": "count",
        "protocols.callbacks": "count",
        "protocols.callback_s": "s",
        "store.get.bytes": "B",
        "store.put.bytes": "B",
        "store.hit_ratio": "ratio",
    })
    for name, counter in REGISTRY_COUNTERS:
        units[name] = "B" if name.endswith("bytes_on_wire") else "count"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["layer.unattributed_s"] = "s"
    units["obs.trace_overhead"] = "ratio"
    return units


def per_layer_metrics(tracing: Tracing, snapshot: Any, phase_s: float,
                      overhead: float) -> Dict[str, float]:
    """The per-layer values of one traced timed phase of ``phase_s``
    seconds (``snapshot`` is the program's metrics registry after it,
    ``overhead`` the traced over the untraced wall time)."""
    times = tracing.layer_times()
    values: Dict[str, float] = {}
    for name, _, _ in SPANS:
        if _is_experiment(name):
            values[f"{name}.wall_s"] = times.get(name, {}).get("total_s", 0.0)
    layer_self: Dict[str, float] = defaultdict(float)
    for prefix, entry in times.items():
        if prefix != "<root>":
            layer_self[prefix.split(".")[0]] += entry["self_s"]
    for prefix in _prefixes():
        entry = times.get(prefix, {})
        values[f"{prefix}.calls"] = entry.get("calls", 0)
        values[f"{prefix}.self_s"] = entry.get("self_s", 0.0)
    messages = tracing.counts["core.runner.messages"]
    get_calls = values["store.get.calls"]
    values.update({
        "core.runner.messages": messages,
        "core.runner.us_per_msg": (
            values["core.runner.run_protocol.self_s"] / messages * 1e6
            if messages else 0.0),
        "topology.messages": tracing.counts["topology.messages"],
        "protocols.callbacks": tracing.callback_calls,
        "protocols.callback_s": tracing.callback_s,
        "store.get.bytes": tracing.counts["store.get.bytes"],
        "store.put.bytes": tracing.counts["store.put.bytes"],
        "store.hit_ratio": (
            tracing.counts["store.get.hits"] / get_calls if get_calls
            else 0.0),
    })
    for name, counter in REGISTRY_COUNTERS:
        values[name] = sum(snapshot.counters.get(counter, {}).values())
    layer_self["protocols"] += tracing.callback_s
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = layer_self[layer]
    values["layer.unattributed_s"] = (
        phase_s - times.get("<root>", {}).get("total_s", 0.0))
    values["obs.trace_overhead"] = overhead
    return values
