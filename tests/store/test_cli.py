"""python -m repro.store: the maintenance CLI, driven in-process."""

import os

from repro.store import ResultKey, ResultStore
from repro.store.__main__ import main


def populate(root, count=3, size=64):
    store = ResultStore(root)
    for i in range(count):
        store.put(
            ResultKey(
                experiment="T", params={"cell": i}, seed=None, version="t/1"
            ),
            bytes(size),
        )
    return store


def test_stats(tmp_path, capsys):
    root = str(tmp_path / "store")
    populate(root)
    assert main(["stats", "--dir", root]) == 0
    out = capsys.readouterr().out
    assert "entries:     3" in out
    assert "T" in out


def test_verify_clean_then_corrupt(tmp_path, capsys):
    root = str(tmp_path / "store")
    store = populate(root)
    assert main(["verify", "--dir", root]) == 0

    victim = next(store.entries()).path
    with open(victim, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        handle.write(b"\x00")
    assert main(["verify", "--dir", root]) == 1
    assert "CORRUPT" in capsys.readouterr().out

    # --delete reclaims the damaged entry; the store is then clean.
    assert main(["verify", "--dir", root, "--delete"]) == 1
    assert "removed" in capsys.readouterr().out
    assert main(["verify", "--dir", root]) == 0
    assert ResultStore(root).stats().entries == 2


def test_gc_respects_bound(tmp_path, capsys):
    root = str(tmp_path / "store")
    store = populate(root, count=4, size=256)
    per_entry = store.total_bytes() // 4
    assert main(["gc", "--dir", root, "--max-bytes", str(2 * per_entry)]) == 0
    assert "evicted 2 entries" in capsys.readouterr().out
    assert ResultStore(root).total_bytes() <= 2 * per_entry


def test_gc_to_zero_empties_a_cold_store(tmp_path):
    root = str(tmp_path / "store")
    populate(root)
    assert main(["gc", "--dir", root, "--max-bytes", "0"]) == 0
    assert ResultStore(root).stats().entries == 0
