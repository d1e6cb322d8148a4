"""The benchmark's own tests: its checks catch wrong outputs, and its
metric names match BENCHMARK.json.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import Reference  # noqa: E402
from checks import Ledger, load_digests  # noqa: E402

E7 = "repro.experiments.e7_sampling_cost"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_pinned_table_passes():
    ledger = Ledger()
    workloads._run_table(ledger, load_digests()["tables"], "E7", E7, {})
    assert (ledger.attempted, ledger.failed) == (1, 0)


def test_changed_table_cell_fails(monkeypatch):
    import repro.experiments.e7_sampling_cost as e7

    original = e7.run

    def changed_cell(**kwargs):
        table = original(**kwargs)
        first = list(table.rows[0])
        first[-1] = "changed"
        table.rows[0] = tuple(first)
        return table

    monkeypatch.setattr(e7, "run", changed_cell)
    ledger = Ledger()
    workloads._run_table(ledger, load_digests()["tables"], "E7", E7, {})
    assert ledger.failed == 1 and ledger.fail_ratio == 1.0


def _direct_runs(seed: int = 5, count: int = 80) -> Ledger:
    plan = {"cases": workloads.draw_cases(seed, count), "tables": []}
    ledger = Ledger()
    workloads.ProtocolRuns().execute(plan, ledger, load_digests(),
                                     Reference())
    return ledger


def test_direct_runs_pass():
    ledger = _direct_runs()
    assert ledger.attempted == 80 and ledger.failed == 0


@pytest.mark.parametrize("module, cls", [
    ("repro.protocols.trivial", "TrivialDisjointnessProtocol"),
    ("repro.topology.protocols", "RingTokenAndProtocol"),
])
def test_wrong_protocol_output_fails(monkeypatch, module, cls):
    import importlib

    target = getattr(importlib.import_module(module), cls)
    original = target.output

    def flipped(self, *args):
        return 1 - original(self, *args)

    monkeypatch.setattr(target, "output", flipped)
    ledger = _direct_runs()
    assert ledger.failed > 0
    assert 0 < ledger.fail_ratio < 1


def test_wrong_bit_count_fails(monkeypatch):
    """Disjointness runs are also checked against the bigint simulators,
    so a wrong bit count fails even when the output is right."""
    from repro.perf import kernels

    original = kernels.simulate_naive_disjointness

    def off_by_one(n, k, inputs):
        bits, output = original(n, k, inputs)
        return bits + 1, output

    monkeypatch.setattr(kernels, "simulate_naive_disjointness", off_by_one)
    assert _direct_runs().failed > 0


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert declared == layers.per_layer_units()


def test_tracing_restores_the_program():
    import repro.core.runner as runner
    import repro.experiments.e1_disjointness_scaling as e1
    from repro.protocols.trivial import TrivialDisjointnessProtocol

    before = (runner.run_protocol, e1.run_protocol,
              TrivialDisjointnessProtocol.__dict__["output"])
    tracing = layers.Tracing()
    tracing.install()
    try:
        assert e1.run_protocol is runner.run_protocol is not before[0]
        run = runner.run_protocol(TrivialDisjointnessProtocol(8, 2), (1, 2))
        assert run.output == 1
    finally:
        tracing.remove()
    assert (runner.run_protocol, e1.run_protocol,
            TrivialDisjointnessProtocol.__dict__["output"]) == before
    times = tracing.layer_times()
    assert times["core.runner.run_protocol"]["calls"] == 1
    assert tracing.callback_calls > 0


def _bench(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_prints_every_end_to_end_metric():
    done = _bench(ROOT, "--workload", "sweep-serve", "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in _spec()["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "exact-info", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
