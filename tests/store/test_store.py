"""repro.store.store: round-trips, atomicity, counters, and eviction."""

import os

import pytest

from repro.obs import REGISTRY, RecordingTracer, set_tracer
from repro.store import (
    ResultKey,
    ResultStore,
    StoreError,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.store.store import (
    MAGIC,
    _entry_header,
    decode_entry,
    encode_entry,
)


def key_for(i, version="test/1"):
    return ResultKey(
        experiment="T", params={"cell": i}, seed=None, version=version
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def metrics():
    was = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enabled = True
    yield REGISTRY
    REGISTRY.enabled = was
    REGISTRY.reset()


class TestRoundTrip:
    def test_put_get_byte_identical(self, store):
        payload = b'{"value":0.30000000000000004}'
        store.put(key_for(0), payload)
        assert store.get(key_for(0)) == payload

    def test_miss_returns_none(self, store):
        assert store.get(key_for(99)) is None
        assert not store.contains(key_for(99))

    def test_layout_fans_out_by_digest(self, store):
        key = key_for(1)
        path = store.put(key, b"x")
        assert path == store.path_for(key)
        digest = key.digest
        assert path.endswith(
            os.path.join("objects", digest[:2], digest + ".res")
        )

    def test_overwrite_same_key(self, store):
        store.put(key_for(0), b"old")
        store.put(key_for(0), b"new")
        assert store.get(key_for(0)) == b"new"

    def test_delete(self, store):
        store.put(key_for(0), b"x")
        assert store.delete(key_for(0))
        assert not store.delete(key_for(0))
        assert store.get(key_for(0)) is None

    def test_verify_returns_payload_or_raises_on_absent(self, store):
        store.put(key_for(0), b"abc")
        assert store.verify(key_for(0)) == b"abc"
        with pytest.raises(StoreError):
            store.verify(key_for(1))

    def test_version_bump_makes_entry_unreachable(self, store):
        store.put(key_for(0, version="test/1"), b"stale")
        assert store.get(key_for(0, version="test/2")) is None
        assert store.contains(key_for(0, version="test/1"))

    def test_entry_encoding_embeds_the_key(self, store):
        key = key_for(7)
        decoded_key, payload = decode_entry(encode_entry(key, b"payload"))
        assert decoded_key == key
        assert payload == b"payload"

    @pytest.mark.parametrize(
        "params",
        [{"cell": 7}, {"n": 64, "grid": [1, [2.5, None]], "ok": True},
         {"x": 1e300, "y": -0.0, "z": 1 / 3}, {"name": "π"}, 3, []],
        ids=["int", "nested", "floats", "non-ascii", "scalar", "empty"],
    )
    def test_get_splices_the_header_encode_entry_writes(self, params):
        # get accepts an entry's key by comparing header bytes with this
        # splice; if the two spellings drifted apart, every hit would
        # silently take the re-serializing fallback.
        key = ResultKey("T", params, 5, "test/1")
        header = _entry_header(key.canonical()[0], 7)
        blob = encode_entry(key, b"payload")
        assert blob[len(MAGIC) + 4:].startswith(header + b"payload")


class TestAtomicWrites:
    def test_no_temp_files_survive(self, tmp_path):
        target = tmp_path / "out" / "table.txt"
        atomic_write_text(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [
            name
            for name in os.listdir(target.parent)
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_overwrite_replaces_whole_file(self, tmp_path):
        target = str(tmp_path / "blob")
        atomic_write_bytes(target, b"A" * 100)
        atomic_write_bytes(target, b"B")
        with open(target, "rb") as handle:
            assert handle.read() == b"B"

    def test_failed_write_cleans_up(self, tmp_path):
        # A write that raises (here: a non-buffer payload) must leave
        # neither the target nor a stray temp file behind.
        target = str(tmp_path / "never")
        with pytest.raises(TypeError):
            atomic_write_bytes(target, "not-bytes")  # type: ignore[arg-type]
        assert not os.path.exists(target)
        assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")] == []


class TestObservability:
    def test_hit_miss_and_byte_counters(self, store, metrics):
        store.get(key_for(0))  # miss
        store.put(key_for(0), b"12345")
        store.get(key_for(0))  # hit
        assert metrics.counter("store_misses").value(experiment="T") == 1
        assert metrics.counter("store_hits").value(experiment="T") == 1
        assert metrics.counter("store_bytes").value(direction="write") == 5
        assert metrics.counter("store_bytes").value(direction="read") == 5

    def test_tracer_events(self, store):
        tracer = RecordingTracer()
        set_tracer(tracer)
        try:
            store.put(key_for(0), b"x")
            store.get(key_for(0))
            store.get(key_for(1))
        finally:
            set_tracer(None)
        names = [e.name for e in tracer.events if e.kind == "event"]
        assert names.count("store_put") == 1
        assert names.count("store_get") == 2
        hits = [
            e.fields.get("hit")
            for e in tracer.events
            if e.name == "store_get"
        ]
        assert hits == [True, False]


class TestStatsAndGc:
    def _age(self, store, key, mtime):
        os.utime(store.path_for(key), (mtime, mtime))

    def test_stats_by_experiment(self, store):
        store.put(key_for(0), b"a")
        store.put(
            ResultKey(experiment="U", params=1, seed=None, version="v/1"),
            b"bb",
        )
        stats = store.stats()
        assert stats.entries == 2
        assert stats.by_experiment == {"T": 1, "U": 1}
        assert stats.total_bytes == store.total_bytes()
        assert "entries:     2" in stats.render()

    def test_gc_unbounded_is_a_noop(self, store):
        store.put(key_for(0), b"x")
        assert store.gc() == []

    def test_gc_evicts_lru_first(self, store, metrics):
        for i in range(4):
            store.put(key_for(i), bytes(50))
        for i in range(4):  # oldest = cell 0, newest = cell 3
            self._age(store, key_for(i), 1000.0 + i)
        fresh = ResultStore(store.root)  # nothing touched this run
        per_entry = store.total_bytes() // 4
        evicted = fresh.gc(2 * per_entry)
        # Deterministic order: oldest mtime first.
        assert evicted == [key_for(0).digest, key_for(1).digest]
        assert fresh.total_bytes() <= 2 * per_entry
        assert store.get(key_for(3)) is not None
        assert metrics.counter("store_evictions").total() == 2

    def test_gc_never_evicts_this_runs_working_set(self, store):
        for i in range(3):
            store.put(key_for(i), bytes(100))
            self._age(store, key_for(i), 1000.0 + i)
        # The writing instance touched everything: nothing can go, even
        # under an impossible bound.
        assert store.gc(0) == []
        # A fresh instance that only *read* cell 0 must keep it and
        # evict the (older-by-mtime untouched) rest.
        reader = ResultStore(store.root)
        assert reader.get(key_for(0)) is not None
        evicted = reader.gc(0)
        assert key_for(0).digest not in evicted
        assert len(evicted) == 2
        assert reader.get(key_for(0)) is not None

    def test_verify_all_clean(self, store):
        for i in range(3):
            store.put(key_for(i), b"x" * i)
        report = store.verify_all()
        assert report.ok and report.checked == 3 and report.corrupt == ()
