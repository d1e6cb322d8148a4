"""Crash-resume end-to-end: SIGKILL anywhere, resume from the store
checkpoint, tables byte-identical to serial.

Three layers:

* a TCP sweep whose *workers* SIGKILL themselves mid-sweep (the
  ``REPRO_FABRIC_TEST_KILL_AFTER`` drill hook) — the partial
  write-through survives and a clean re-run finishes from it;
* a ``python -m repro.fabric sweep`` *coordinator* subprocess SIGKILLed
  mid-sweep — same resume, via the CLI;
* resume-identity for every sweepable experiment (E1/E2/E4/E14): a
  table rendered after a fabric warm-up over a half-destroyed
  checkpoint is byte-identical to the serial table.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fabric.errors import WorkerLostError
from repro.fabric.sweep import fabric_sweep
from repro.fabric.tcp import run_tcp_sweep
from repro.store.keys import ResultKey, code_version
from repro.store.store import ResultStore
from repro.store.sweep import checkpointed_map_grid, encode_result

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _e2_keys(ks):
    version = code_version("E2")
    return [
        ResultKey(experiment="E2", params={"k": k}, seed=None, version=version)
        for k in ks
    ]


def test_worker_sigkill_mid_sweep_then_resume(tmp_path):
    """Both workers SIGKILL themselves after one cell; the re-run
    resumes from the two checkpointed cells and the final store is
    byte-identical to the serial sweep."""
    from repro.experiments.e2_and_information import _measure_grid_point

    ks = [2, 3, 4, 6]
    store = ResultStore(str(tmp_path / "store"))
    keys = _e2_keys(ks)

    with pytest.raises(WorkerLostError):
        run_tcp_sweep(
            keys,
            store=store,
            workers=2,
            timeout=120.0,
            worker_env={"REPRO_FABRIC_TEST_KILL_AFTER": "1"},
        )
    survived = [k for k in keys if store.get(k) is not None]
    assert survived, "no cell survived the worker kills"
    assert len(survived) < len(keys), "sweep finished despite the kills"

    # Resume: a clean pool completes the remainder from the checkpoint.
    results = run_tcp_sweep(keys, store=store, workers=2, timeout=120.0)
    assert sorted(results) == list(range(len(ks)))
    for i, k in enumerate(ks):
        assert store.get(keys[i]) == encode_result(_measure_grid_point(k))


def test_coordinator_sigkill_mid_sweep_then_resume(tmp_path):
    """SIGKILL the whole ``python -m repro.fabric sweep`` coordinator
    process mid-sweep; re-running it resumes from the store and ends
    byte-identical to a serial checkpointed sweep."""
    from repro.experiments.e2_and_information import DEFAULT_KS

    quick_ks = [k for k in DEFAULT_KS if k <= 16]
    store_dir = str(tmp_path / "store")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # The kill hook propagates to the spawned workers, so the sweep can
    # never finish on its own — the coordinator is guaranteed to still
    # be mid-sweep when we SIGKILL it.
    env["REPRO_FABRIC_TEST_KILL_AFTER"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.fabric", "sweep", "E2",
            "--quick", "--store", store_dir, "--workers", "2",
            "--transport", "tcp",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        store = ResultStore(store_dir)
        deadline = time.monotonic() + 90.0
        while time.monotonic() < deadline:
            if store.stats().entries >= 1:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        assert store.stats().entries >= 1, "no checkpoint before the kill"
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - belt and braces
            proc.kill()
            proc.wait()

    partial = ResultStore(store_dir).stats().entries
    assert partial < len(quick_ks) + 1, "nothing left to resume"

    env.pop("REPRO_FABRIC_TEST_KILL_AFTER")
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.fabric", "sweep", "E2",
            "--quick", "--store", store_dir, "--workers", "2",
            "--transport", "tcp",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr

    # Byte-identical to the serial checkpointed sweep.
    from repro.experiments.e2_and_information import _measure_grid_point

    serial_store = ResultStore(str(tmp_path / "serial"))
    checkpointed_map_grid(
        _measure_grid_point,
        quick_ks,
        store=serial_store,
        experiment="E2",
        version=code_version("E2"),
        params_of=lambda k: {"k": k},
    )
    resumed = ResultStore(store_dir)
    for key in _e2_keys(quick_ks):
        assert resumed.get(key) == serial_store.get(key)


# ----------------------------------------------------------------------
# Resume-identity for every sweepable experiment.
# ----------------------------------------------------------------------
def _small_cases():
    """experiment -> (run, kwargs, the keys that run reads)."""
    from repro.experiments import (
        e1_disjointness_scaling as e1,
        e2_and_information as e2,
        e4_omega_k as e4,
        e14_optimal_information as e14,
    )

    grid = [(64, 4), (256, 4)]
    return {
        "E1": (e1.run, {"grid": grid}, e1.SWEEP.keys(grid)),
        "E2": (e2.run, {"ks": (2, 3, 4)}, e2.SWEEP.keys((2, 3, 4))),
        "E4": (
            e4.run, {"ks": (16,)}, e4.SWEEP.keys(e4.budget_grid((16,)))
        ),
        "E14": (
            e14.run,
            {"ks": (2, 3)},
            e14.SWEEP.keys((2, 3)) + e14.EXTERNAL_SWEEP.keys((3,)),
        ),
    }


@pytest.mark.parametrize("experiment", ["E1", "E2", "E4", "E14"])
def test_fabric_table_resumes_byte_identical(tmp_path, experiment):
    """A fabric warm-up over the experiment's own keys, then
    ``run(store=...)``, renders the serial table from pure hits; then
    destroy half the checkpoint and warm again — the resumed table is
    still identical."""
    runner, kwargs, keys = _small_cases()[experiment]
    serial = runner(**kwargs).render()

    store = ResultStore(str(tmp_path / "store"))

    def warm_then_render():
        fabric_sweep(keys, store=store, workers=2, transport="loopback")
        entries = store.stats().entries
        table = runner(**kwargs, store=store).render()
        assert store.stats().entries == entries == len(keys)
        return table

    assert warm_then_render() == serial

    # Simulate a sweep killed partway: drop every other checkpointed
    # cell, then resume through the fabric again.
    for index, entry in enumerate(store.entries()):
        if index % 2 == 0:
            os.unlink(entry.path)
    assert warm_then_render() == serial
