"""Orphaned ``.tmp-*`` files: the SIGKILL-mid-put leak and its sweepers.

A process killed between ``mkstemp`` and ``os.replace`` leaves a temp
file the except-clause cleanup never sees.  These tests pin that the
store (a) survives such a kill with the entry invisible and the orphan
detectable, (b) reports orphans in ``stats``/``verify``, and (c)
reclaims them age-gated via ``gc``/``sweep_tmp`` and unconditionally
via ``verify --delete`` — without ever touching live entries or a
concurrent in-flight put's young temp file.
"""

import os
import subprocess
import sys
import textwrap

from repro.store.keys import ResultKey
from repro.store.store import ResultStore
from repro.store import __main__ as store_cli

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _key(i=0):
    return ResultKey(
        experiment="FAKE", params={"i": i}, seed=None, version="v-test"
    )


def _plant_orphan(store, *, name=".tmp-planted", age_s=0.0, data=b"partial"):
    shard = os.path.join(store.root, "objects", "ab")
    os.makedirs(shard, exist_ok=True)
    path = os.path.join(shard, name)
    with open(path, "wb") as handle:
        handle.write(data)
    if age_s:
        old = os.stat(path).st_mtime - age_s
        os.utime(path, (old, old))
    return path


class TestReporting:
    def test_stats_counts_orphans(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put(_key(), b"payload")
        assert store.stats().tmp_files == 0
        _plant_orphan(store, data=b"1234567")
        stats = store.stats()
        assert stats.tmp_files == 1
        assert stats.tmp_bytes == 7
        assert "orphaned tmp: 1 files, 7 bytes" in stats.render()

    def test_verify_reports_but_does_not_fail(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put(_key(), b"payload")
        path = _plant_orphan(store)
        report = store.verify_all()
        assert report.ok  # an orphan is waste, not corruption
        assert path in report.orphaned
        assert os.path.exists(path)

    def test_verify_delete_reclaims_regardless_of_age(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put(_key(), b"payload")
        path = _plant_orphan(store)  # brand new
        report = store.verify_all(delete=True)
        assert path in report.removed
        assert not os.path.exists(path)
        assert store.get(_key()) == b"payload"


class TestSweeping:
    def test_gc_sweeps_old_orphans_even_without_a_bound(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        store.put(_key(), b"payload")
        old = _plant_orphan(store, name=".tmp-old", age_s=7200.0)
        assert store.gc() == []
        assert not os.path.exists(old)
        assert store.get(_key()) == b"payload"

    def test_age_gate_protects_an_inflight_put(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        young = _plant_orphan(store, name=".tmp-young")
        assert store.sweep_tmp() == []  # default hour-long gate
        assert os.path.exists(young)
        assert store.sweep_tmp(max_age_s=0.0) == [young]
        assert not os.path.exists(young)

    def test_cli_gc_reports_swept_orphans(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "store"))
        _plant_orphan(store, age_s=7200.0)
        rc = store_cli.main(
            [
                "gc", "--dir", store.root,
                "--max-bytes", "1000000000", "--tmp-max-age", "3600",
            ]
        )
        assert rc == 0
        assert "swept 1 orphaned tmp files" in capsys.readouterr().out

    def test_cli_gc_sweeps_once_at_the_given_age(self, tmp_path, capsys):
        # The store's own default gate (an hour) must not override the
        # user's: an orphan younger than --tmp-max-age survives, an
        # older one goes and is counted.
        store = ResultStore(str(tmp_path / "store"))
        young = _plant_orphan(store, name=".tmp-young", age_s=5000.0)
        old = _plant_orphan(store, name=".tmp-old", age_s=9000.0)
        rc = store_cli.main(
            [
                "gc", "--dir", store.root,
                "--max-bytes", "100000000", "--tmp-max-age", "7200",
            ]
        )
        assert rc == 0
        assert os.path.exists(young)
        assert not os.path.exists(old)
        assert "swept 1 orphaned tmp files" in capsys.readouterr().out


def test_sigkill_mid_put_leaves_a_recoverable_orphan(tmp_path):
    """The regression drill: a child process dies by SIGKILL *inside*
    ``put`` (just before the rename).  The entry must be invisible, the
    orphan visible, the sweep must reclaim it, and a clean re-put must
    land the entry."""
    store_dir = str(tmp_path / "store")
    script = textwrap.dedent(
        """
        import os, signal
        from repro.store.keys import ResultKey
        from repro.store import store as store_mod

        # Die the hard way at the exact atomic_write_bytes commit point.
        store_mod.os.replace = lambda src, dst: os.kill(
            os.getpid(), signal.SIGKILL
        )
        s = store_mod.ResultStore(%r)
        key = ResultKey(
            experiment="FAKE", params={"i": 0}, seed=None, version="v-test"
        )
        s.put(key, b"payload")
        raise SystemExit("unreachable: the kill must fire first")
        """
        % store_dir
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, timeout=60
    )
    assert proc.returncode == -9  # died by SIGKILL, mid-put

    store = ResultStore(store_dir)
    assert store.get(_key()) is None  # the torn write is invisible
    orphans = list(store.tmp_files())
    assert len(orphans) == 1
    assert os.path.basename(orphans[0].path).startswith(".tmp-")
    assert store.stats().tmp_files == 1

    # Reclaim, then prove the store is fully serviceable.
    assert store.sweep_tmp(max_age_s=0.0) == [orphans[0].path]
    assert store.stats().tmp_files == 0
    store.put(_key(), b"payload")
    assert store.get(_key()) == b"payload"
    assert store.verify_all().ok
