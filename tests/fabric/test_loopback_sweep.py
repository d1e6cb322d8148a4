"""Loopback fabric sweeps: determinism, faults, typed failures,
byte-identity against the serial store path.

Cheap synthetic cells (a ``compute`` stub) exercise the transport and
failure machinery; a small real E2 grid pins the byte-identity claim:
a fabric warm-up followed by ``run(store=...)`` renders the serial
table from pure hits.
"""

import pytest

from repro.fabric.errors import WorkerLostError
from repro.fabric.loopback import run_loopback_sweep
from repro.fabric.sweep import fabric_sweep
from repro.net.errors import NetTimeoutError, RetriesExhaustedError
from repro.net.faults import FaultPlan, PartyCrash, chaos_plan
from repro.store.keys import ResultKey
from repro.store.store import ResultStore
from repro.store.sweep import encode_result


def _fake_keys(count):
    return [
        ResultKey(
            experiment="FAKE",
            params={"i": i},
            seed=None,
            version="v-test",
        )
        for i in range(count)
    ]


def _fake_compute(key):
    return encode_result({"i": key.params["i"], "value": key.params["i"] ** 2})


class TestCleanSweep:
    def test_all_cells_computed(self):
        keys = _fake_keys(7)
        results = run_loopback_sweep(
            keys, store=None, workers=3, compute=_fake_compute
        )
        assert sorted(results) == list(range(7))
        for i, key in enumerate(keys):
            assert results[i] == _fake_compute(key)

    def test_write_through_warms_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        keys = _fake_keys(5)
        results = run_loopback_sweep(
            keys, store=store, workers=2, compute=_fake_compute
        )
        for i, key in enumerate(keys):
            assert store.get(key) == results[i]

    def test_single_worker_pool(self):
        results = run_loopback_sweep(
            _fake_keys(4), store=None, workers=1, compute=_fake_compute
        )
        assert len(results) == 4


class TestFaults:
    def test_chaos_plan_changes_nothing(self):
        keys = _fake_keys(9)
        clean = run_loopback_sweep(
            keys, store=None, workers=3, compute=_fake_compute
        )
        # chaos_plan may inject up to 48 faults; against a 9-cell sweep
        # the default 5-attempt budget can legitimately exhaust, so give
        # the adversary-outlasting budget the tests/net idiom uses.
        for seed in (1, 7):
            faulty = run_loopback_sweep(
                keys,
                store=None,
                workers=3,
                faults=chaos_plan(seed),
                max_attempts=60,
                compute=_fake_compute,
            )
            assert faulty == clean

    def test_deterministic_for_a_fixed_plan(self):
        keys = _fake_keys(6)
        plan = chaos_plan(3)
        first = run_loopback_sweep(
            keys, store=None, workers=2, faults=plan, max_attempts=60,
            compute=_fake_compute,
        )
        second = run_loopback_sweep(
            keys, store=None, workers=2, faults=plan, max_attempts=60,
            compute=_fake_compute,
        )
        assert first == second

    def test_crash_with_restart_recovers(self):
        plan = FaultPlan(
            crashes=(PartyCrash(party=0, after_round=0, restart=True),)
        )
        results = run_loopback_sweep(
            _fake_keys(6), store=None, workers=2, faults=plan,
            compute=_fake_compute,
        )
        assert len(results) == 6


    def test_a_lost_hello_is_said_again(self):
        # The one fault this plan injects drops the only worker's first
        # HELLO; the worker says it again and the sweep completes.
        keys = _fake_keys(3)
        plan = FaultPlan(seed=0, drop_rate=1.0, max_faults=1)
        results = run_loopback_sweep(
            keys, store=None, workers=1, faults=plan, max_steps=2000,
            compute=_fake_compute,
        )
        assert results == {i: _fake_compute(k) for i, k in enumerate(keys)}


class TestTypedFailures:
    def test_all_workers_dead_no_restart_raises_worker_lost(self):
        plan = FaultPlan(
            crashes=(
                PartyCrash(party=0, after_round=0, restart=False),
                PartyCrash(party=1, after_round=0, restart=False),
            )
        )
        with pytest.raises(WorkerLostError):
            run_loopback_sweep(
                _fake_keys(8), store=None, workers=2, faults=plan,
                compute=_fake_compute,
            )

    def test_pending_restart_keeps_the_pool_alive(self):
        # Worker 0 crashes with a restart queued, then worker 1 dies for
        # good: the pool is empty for a moment but not lost, and the
        # restarted worker finishes the sweep.
        from repro.fabric.cells import sweep_keys

        keys = sweep_keys("E14", quick=True)
        plan = FaultPlan(
            crashes=(
                PartyCrash(party=0, after_round=0, restart=True),
                PartyCrash(party=1, after_round=0, restart=False),
            )
        )
        clean = run_loopback_sweep(keys, store=None, workers=2)
        crashed = run_loopback_sweep(keys, store=None, workers=2, faults=plan)
        assert crashed == clean

    def test_step_budget_raises_net_timeout(self):
        with pytest.raises(NetTimeoutError):
            run_loopback_sweep(
                _fake_keys(8), store=None, workers=2, max_steps=3,
                compute=_fake_compute,
            )

    def test_hopeless_cell_exhausts_retries(self):
        # Workers crash before completing anything, forever (restart +
        # crash again): the retry budget converts the livelock into a
        # typed failure.  after_round=-1 fires on the first delivery,
        # so every dispatch burns an attempt without progress.
        plan = FaultPlan(
            crashes=tuple(
                PartyCrash(party=0, after_round=-1, restart=True)
                for _ in range(20)
            )
        )
        with pytest.raises((RetriesExhaustedError, NetTimeoutError)):
            run_loopback_sweep(
                _fake_keys(1),
                store=None,
                workers=1,
                faults=plan,
                max_attempts=2,
                compute=_fake_compute,
            )


class TestFabricSweepEntry:
    def test_warm_sweep_recomputes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        keys = _fake_keys(5)
        run_loopback_sweep(keys, store=store, workers=2, compute=_fake_compute)

        calls = []

        def _tracking(key):
            calls.append(key)
            return _fake_compute(key)

        report = fabric_sweep(
            keys, store=store, workers=2, transport="loopback"
        )
        assert report == {"cells": 5, "hits": 5, "computed": 0}
        assert calls == []

    def test_unknown_transport_refused(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ValueError):
            fabric_sweep(_fake_keys(1), store=store, workers=1, transport="ipx")

    def test_faults_are_loopback_only(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(ValueError):
            fabric_sweep(
                _fake_keys(1),
                store=store,
                workers=1,
                transport="tcp",
                faults=chaos_plan(0),
            )

    def test_grid_requires_a_store(self):
        with pytest.raises(ValueError, match="require a result store"):
            fabric_sweep(
                _fake_keys(2), store=None, workers=1, transport="loopback"
            )


class TestByteIdentity:
    """The core fabric claim: a fabric warm-up over an experiment's own
    keys writes the serial path's bytes, and the experiment then renders
    its table from pure hits."""

    def _warm_then_run(self, tmp_path, ks, **sweep_kwargs):
        from repro.experiments import e2_and_information as e2

        serial_store = ResultStore(str(tmp_path / "serial"))
        serial = e2.run(ks, store=serial_store).render()

        fabric_store = ResultStore(str(tmp_path / "fabric"))
        keys = e2.SWEEP.keys(ks)
        fabric_sweep(
            keys,
            store=fabric_store,
            workers=2,
            transport="loopback",
            **sweep_kwargs,
        )
        entries = fabric_store.stats().entries
        assert e2.run(ks, store=fabric_store).render() == serial
        assert fabric_store.stats().entries == entries  # pure hits
        for key in keys:
            assert fabric_store.get(key) == serial_store.get(key)

    def test_e2_store_entries_identical_to_serial(self, tmp_path):
        self._warm_then_run(tmp_path, (2, 3, 4))

    def test_e2_identical_under_chaos(self, tmp_path):
        self._warm_then_run(
            tmp_path, (2, 3), faults=chaos_plan(7), max_attempts=60
        )
