"""Telemetry sink, live renderer, profiler, and analysis units.

Complements ``test_distributed_trace.py`` (the end-to-end acceptance):
these drive each piece directly on synthetic data — the sink's sweep
window over the metrics registry and its nesting, the single-line
renderer, JSONL round-trips, profiler sampling, span-forest
reassembly — and check, once per sweep path (pool, fabric, store),
that the final snapshot equals the registry's own totals.
"""

import io

from repro.fabric.loopback import run_loopback_sweep
from repro.net import run_networked
from repro.net.faults import FaultPlan, PartyCrash, chaos_plan
from repro.obs import (
    REGISTRY,
    ProgressRenderer,
    RecordingTracer,
    TelemetrySink,
    collecting,
    get_telemetry,
    read_telemetry,
    using_telemetry,
    using_tracer,
)
from repro.obs.analysis import (
    aggregate_profile,
    aggregate_spans,
    build_span_forest,
    critical_path,
    diff_aggregates,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler, read_profile
from repro.perf import map_grid
from repro.protocols import protocol_case
from repro.store import ResultStore, checkpointed_map_grid
from repro.store.keys import ResultKey
from repro.store.sweep import encode_result
from tests.perf.test_map_grid import square  # picklable module-level task


def faulted_run(seed):
    """A picklable task: one blackboard run under ``chaos_plan(7)``."""
    case = protocol_case("noisy-sequential-and")
    run = run_networked(
        case.build(), case.input_tuples()[-1], seed=seed,
        faults=chaos_plan(7),
    )
    return run.bits_communicated


def _final(out):
    final = read_telemetry(io.StringIO(out.getvalue()))[-1]
    assert final["final"] is True
    return final


def _total(name):
    return sum(REGISTRY.snapshot().counters.get(name, {}).values())


def _faults():
    split = {}
    for key, value in REGISTRY.snapshot().counters.get(
        "net_faults_injected", {}
    ).items():
        fault = dict(key)["fault"]
        split[fault] = split.get(fault, 0) + value
    return split


class TestTelemetrySink:
    def test_null_sink_is_falsy_and_inert(self):
        # Nothing is installed by default, and sweeps run without one.
        assert not get_telemetry()
        with collecting():
            assert map_grid(square, [1, 2]) == [1, 4]
        assert get_telemetry() is None

    def test_aggregation_and_final_snapshot(self):
        out = io.StringIO()
        sink = TelemetrySink(out, interval_s=0.0)
        with collecting() as reg:
            reg.counter("net_retries").inc(5, party=0)  # before the window
            sink.start_sweep("E1", 4, hits=1)
            reg.counter("grid_tasks_done").inc(worker="0")
            reg.counter("grid_tasks_done").inc(worker="1")
            reg.counter("net_faults_injected").inc(
                fault="drop", transport="loopback"
            )
            reg.counter("net_faults_injected").inc(
                fault="drop", transport="fabric"
            )
            reg.counter("net_retries").inc(party=0)
            reg.counter("net_bytes_on_wire").inc(60, transport="loopback")
            reg.counter("fabric_bytes_on_wire").inc(40, transport="loopback")
            sink.finish_sweep()
        records = read_telemetry(io.StringIO(out.getvalue()))
        final = records[-1]
        assert final["final"] is True
        assert final["experiment"] == "E1"
        assert final["cells_total"] == 4
        assert final["cells_done"] == 3  # 1 hit + 2 recomputes
        assert final["hits"] == 1 and final["recomputes"] == 2
        assert final["faults"] == {"drop": 2}
        assert final["retries"] == 1
        assert final["bytes_on_wire"] == 100
        assert final["workers"] == {"0": {"cells": 1}, "1": {"cells": 1}}
        assert final["eta_s"] is not None  # one fresh cell remaining

    def test_nested_sweeps_join_the_outermost(self):
        sink = TelemetrySink(None, interval_s=0.0)
        with collecting() as reg:
            sink.start_sweep("outer", 10, hits=4)
            sink.start_sweep("inner", 6)  # joins; must not reset
            reg.counter("grid_tasks_done").inc(worker="0")
            sink.finish_sweep()
            snap = sink.snapshot()
            assert snap["experiment"] == "outer"
            assert snap["cells_total"] == 10
            assert snap["cells_done"] == 5
            sink.finish_sweep()

    def test_interval_throttles_but_final_always_flushes(self):
        out = io.StringIO()
        sink = TelemetrySink(out, interval_s=3600.0)
        with collecting() as reg:
            sink.start_sweep("E1", 100)
            for _ in range(50):
                reg.counter("grid_tasks_done").inc(worker="0")
                sink.flush()
            sink.finish_sweep()
        records = read_telemetry(io.StringIO(out.getvalue()))
        # The start flush and the final flush; nothing in between.
        assert len(records) == 2
        assert records[-1]["final"] and records[-1]["cells_done"] == 50

    def test_using_telemetry_scopes_the_global(self):
        sink = TelemetrySink(None)
        assert get_telemetry() is None
        with using_telemetry(sink):
            assert get_telemetry() is sink
        assert get_telemetry() is None


class TestProgressRenderer:
    def _line(self, snap):
        out = io.StringIO()
        renderer = ProgressRenderer(out)
        renderer.render(snap)
        return out.getvalue()

    def test_renders_bar_and_counts(self):
        sink = TelemetrySink(None, interval_s=0.0)
        with collecting() as reg:
            sink.start_sweep("E1", 4, hits=2)
            reg.counter("grid_tasks_done").inc(worker="0")
            reg.counter("net_faults_injected").inc(
                fault="corrupt", transport="loopback"
            )
            line = self._line(sink.snapshot())
            sink.finish_sweep()
        assert line.startswith("\r")
        assert "E1" in line and "3/4 cells" in line
        assert "1 faults" in line

    def test_shrinking_line_is_blanked(self):
        out = io.StringIO()
        renderer = ProgressRenderer(out)
        renderer.render({"experiment": "a-very-long-name", "cells_done": 1})
        renderer.render({"experiment": "b", "cells_done": 2})
        tail = out.getvalue().rsplit("\r", 1)[-1]
        assert tail.endswith(" ")  # residue padded over
        renderer.finish()
        assert out.getvalue().endswith("\n")


class TestMapGridTelemetry:
    def test_serial_sweep_reports_cells(self):
        out = io.StringIO()
        sink = TelemetrySink(out, interval_s=0.0)
        with collecting(), using_telemetry(sink):
            assert map_grid(square, [1, 2, 3]) == [1, 4, 9]
        final = _final(out)
        assert final["experiment"] == "map_grid"
        assert final["cells_done"] == 3
        assert final["workers"] == {"0": {"cells": 3}}

    def test_parallel_sweep_attributes_workers(self):
        out = io.StringIO()
        sink = TelemetrySink(out, interval_s=0.0)
        with collecting(), using_telemetry(sink):
            assert map_grid(square, list(range(6)), workers=2) == [
                n * n for n in range(6)
            ]
        final = _final(out)
        assert final["cells_done"] == 6
        # Dense first-seen worker indices, never pids.
        assert "0" in final["workers"]
        assert set(final["workers"]) <= {"0", "1"}
        assert sum(w["cells"] for w in final["workers"].values()) == 6

    def test_bare_sweep_reports_no_hit_split(self):
        # No store was probed: no hits/misses, and no "0% hit" line.
        out, line = io.StringIO(), io.StringIO()
        sink = TelemetrySink(
            out, renderer=ProgressRenderer(line), interval_s=0.0
        )
        with collecting(), using_telemetry(sink):
            map_grid(square, [1, 2, 3])
        for record in read_telemetry(io.StringIO(out.getvalue())):
            assert "hits" not in record and "misses" not in record
        assert "3/3 cells" in line.getvalue()
        assert "hit" not in line.getvalue()

    def test_store_sweep_keeps_its_hit_rate(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        sweep = dict(store=store, experiment="FAKE", version="v-test")
        line = io.StringIO()
        sink = TelemetrySink(
            None, renderer=ProgressRenderer(line), interval_s=0.0
        )
        with collecting():
            with using_telemetry(sink):
                checkpointed_map_grid(square, [1, 2], **sweep)
            assert "0% hit" in line.getvalue()
            with using_telemetry(sink):
                checkpointed_map_grid(square, [1, 2, 3, 4, 5], **sweep)
        assert "40% hit" in line.getvalue()


class TestSnapshotEqualsRegistry:
    """One sweep per path: the final snapshot reads the registry."""

    def test_faulted_pool_sweep(self):
        out = io.StringIO()
        sink = TelemetrySink(out, interval_s=0.0)
        with collecting(), using_telemetry(sink):
            map_grid(faulted_run, [8, 9, 10, 11], workers=2)
            final = _final(out)
            assert final["cells_done"] == final["recomputes"] == 4
            assert set(final["workers"]) <= {"0", "1"}
            assert "0" in final["workers"]
            assert final["faults"] == _faults()
            assert sum(final["faults"].values()) > 0
            assert final["retries"] == _total("net_retries")
            assert final["bytes_on_wire"] == _total("net_bytes_on_wire") > 0

    def test_faulted_fabric_sweep_with_a_crash(self):
        keys = [
            ResultKey(experiment="FAKE", params={"i": i}, seed=None,
                      version="v-test")
            for i in range(6)
        ]
        plan = FaultPlan(
            seed=7, drop_rate=0.15, corrupt_rate=0.15, delay_rate=0.3,
            max_delay=6.0,
            crashes=(PartyCrash(party=0, after_round=1, restart=True),),
            max_faults=24,
        )
        out = io.StringIO()
        sink = TelemetrySink(out, interval_s=0.0)
        with collecting(), using_telemetry(sink):
            sink.start_sweep("fabric:FAKE", len(keys))
            run_loopback_sweep(
                keys, store=None, workers=3, faults=plan, max_attempts=60,
                compute=lambda key: encode_result(key.params),
            )
            sink.finish_sweep()
            final = _final(out)
            assert final["cells_done"] == 6
            assert final["faults"]["crash"] == 1
            assert final["retries"] == _total("fabric_retries") > 0
            assert final["bytes_on_wire"] == _total("fabric_bytes_on_wire")
            assert sum(w["cells"] for w in final["workers"].values()) == 6

    def test_store_sweep_with_hits(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        sweep = dict(store=store, experiment="FAKE", version="v-test")
        out = io.StringIO()
        sink = TelemetrySink(out, interval_s=0.0)
        with collecting():
            checkpointed_map_grid(square, [1, 2], **sweep)
            with using_telemetry(sink):
                checkpointed_map_grid(square, [1, 2, 3, 4, 5], **sweep)
            final = _final(out)
        assert final["experiment"] == "FAKE"
        assert (final["hits"], final["misses"]) == (2, 3)
        assert final["cells_done"] == 5 and final["recomputes"] == 3
        assert final["workers"] == {"0": {"cells": 3}}
        assert final["eta_s"] is None


class TestSamplingProfiler:
    def test_sample_once_records_span_path_and_stack(self):
        out = io.StringIO()
        tracer = RecordingTracer()
        profiler = SamplingProfiler(out)
        with using_tracer(tracer):
            with tracer.span("experiment"), tracer.span("inner_work"):
                record = profiler.sample_once()
        assert record["spans"] == ["experiment", "inner_work"]
        samples = read_profile(io.StringIO(out.getvalue()))
        assert len(samples) == 1
        assert samples[0]["spans"] == ["experiment", "inner_work"]

    def test_obs_frames_are_excluded_from_stacks(self):
        out = io.StringIO()
        record = SamplingProfiler(out).sample_once()
        assert all(
            not frame.startswith("repro.obs") for frame in record["stack"]
        )

    def test_background_thread_samples_and_stops(self):
        import time

        out = io.StringIO()
        profiler = SamplingProfiler(out, hz=500.0, seed=1)
        with profiler:
            deadline = time.perf_counter() + 1.0
            while (
                profiler.samples_taken == 0
                and time.perf_counter() < deadline
            ):
                time.sleep(0.002)
        assert profiler.samples_taken >= 1
        assert read_profile(io.StringIO(out.getvalue()))

    def test_seeded_jitter_replays(self):
        import random

        a = [random.Random(5).uniform(0.8, 1.2) for _ in range(8)]
        b = [random.Random(5).uniform(0.8, 1.2) for _ in range(8)]
        assert a == b


class TestAnalysisUnits:
    def _forest(self):
        tracer = RecordingTracer()
        with tracer.span("root"):
            with tracer.span("fast"):
                pass
            with tracer.span("slow"):
                with tracer.span("leaf"):
                    pass
        return build_span_forest(tracer.events), tracer

    def test_forest_reassembly(self):
        roots, _ = self._forest()
        assert [root.name for root in roots] == ["root"]
        assert [child.name for child in roots[0].children] == [
            "fast", "slow",
        ]

    def test_orphan_spans_surface_as_roots(self):
        tracer = RecordingTracer()
        with tracer.span("root"):
            pass
        events = [e for e in tracer.events]
        # Simulate a lost begin record by reparenting to a ghost id.
        ghost = tracer.begin_span("stray", parent=999_999)
        tracer.end_span(ghost)
        events = tracer.events
        roots = build_span_forest(events)
        assert {root.name for root in roots} == {"root", "stray"}

    def test_critical_path_takes_slowest_child(self):
        roots, _ = self._forest()
        # Synthesize elapsed fields so "slow" dominates.
        for node in roots[0].walk():
            node.end.fields["elapsed_s"] = (
                2.0 if node.name in ("root", "slow", "leaf") else 0.1
            )
        path = critical_path(roots)
        assert [node.name for node in path] == ["root", "slow", "leaf"]

    def test_aggregate_spans_counts_and_sums(self):
        roots, tracer = self._forest()
        totals = aggregate_spans(tracer.events)
        assert totals["root"][0] == 1
        assert set(totals) == {"root", "fast", "slow", "leaf"}

    def test_aggregate_profile_and_diff(self):
        samples = [
            {"spans": ["a", "b"], "stack": ["m:f"]},
            {"spans": ["a", "b"], "stack": ["m:g"]},
            {"spans": ["a"], "stack": []},
            {"spans": [], "stack": []},
        ]
        by_span = aggregate_profile(samples)
        assert by_span["a > b"] == (2, 0.5)
        assert by_span["(no span)"] == (1, 0.25)
        by_stack = aggregate_profile(samples, by="stack")
        assert by_stack["(no repro frame)"][0] == 2
        rows = diff_aggregates(by_span, by_span)
        assert all(row[5] == 1.0 for row in rows if row[5] is not None)


class TestMergeSnapshotLabels:
    def _snapshot(self):
        worker = MetricsRegistry(enabled=True)
        worker.counter("cells").inc(3, phase="batch")
        worker.gauge("depth").set(7.0)
        worker.histogram("bits").observe(5)
        return worker.snapshot()

    def test_unlabeled_merge_is_byte_identical(self):
        from repro.obs import render_metrics

        snapshot = self._snapshot()
        plain = MetricsRegistry(enabled=True)
        labeled_api = MetricsRegistry(enabled=True)
        plain.merge_snapshot(snapshot)
        labeled_api.merge_snapshot(snapshot, **{})
        assert render_metrics(labeled_api) == render_metrics(plain)
        assert (
            labeled_api.snapshot().counters == plain.snapshot().counters
        )
