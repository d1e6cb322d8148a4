"""The result-serving API: warm hits, cold read-through, digest checks,
typed refusals, concurrent clients.
"""

import asyncio
import socket
import threading

import pytest

from repro.fabric.errors import ServeError
from repro.fabric.service import FabricClient, ServerThread, load_test
from repro.fabric.wire import (
    FabricFrame,
    FabricFrameDecoder,
    FabricFrameKind,
    encode_fabric_frame,
)
from repro.store.keys import ResultKey, code_version
from repro.store.store import ResultStore
from repro.store.sweep import encode_result


def _fake_key(i):
    return ResultKey(
        experiment="FAKE", params={"i": i}, seed=None, version="v-test"
    )


@pytest.fixture()
def warm_server(tmp_path):
    """A server over a store pre-warmed with five synthetic entries."""
    store = ResultStore(str(tmp_path / "store"))
    keys = [_fake_key(i) for i in range(5)]
    for key in keys:
        store.put(key, encode_result({"i": key.params["i"]}))
    server = ServerThread(store)
    try:
        yield server, store, keys
    finally:
        server.stop()


class TestWarmServing:
    def test_get_is_a_store_hit(self, warm_server):
        server, store, keys = warm_server
        with FabricClient("127.0.0.1", server.port) as client:
            payload, hit = client.get(keys[0])
        assert hit is True
        assert payload == store.get(keys[0])

    def test_get_many_preserves_order(self, warm_server):
        server, store, keys = warm_server
        with FabricClient("127.0.0.1", server.port) as client:
            answers = client.get_many(keys)
        assert [p for p, _ in answers] == [store.get(k) for k in keys]
        assert all(hit for _, hit in answers)

    def test_eight_concurrent_clients_all_hits(self, warm_server):
        server, _, keys = warm_server
        report = load_test(
            "127.0.0.1",
            server.port,
            keys,
            clients=8,
            rounds=2,
            expect_hits=True,
        )
        assert report["clients"] == 8
        assert report["requests"] == 8 * 2 * len(keys)
        assert report["hits"] == report["requests"]
        assert report["p99_ms"] >= report["p50_ms"] >= 0.0

    def test_expect_hits_raises_when_cold(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = ResultKey(
            experiment="E2",
            params={"k": 2},
            seed=None,
            version=code_version("E2"),
        )
        server = ServerThread(store)
        try:
            with pytest.raises(ServeError):
                load_test(
                    "127.0.0.1", server.port, [key], clients=1,
                    expect_hits=True,
                )
        finally:
            server.stop()


class TestColdServing:
    def test_cold_get_sweeps_then_serves_canonical_bytes(self, tmp_path):
        from repro.experiments.e2_and_information import _measure_grid_point

        store = ResultStore(str(tmp_path / "store"))
        key = ResultKey(
            experiment="E2",
            params={"k": 2},
            seed=None,
            version=code_version("E2"),
        )
        server = ServerThread(store)
        try:
            with FabricClient("127.0.0.1", server.port) as client:
                payload, hit = client.get(key)
                assert hit is False
                assert payload == encode_result(_measure_grid_point(2))
                # The sweep warmed the store: the next lookup is a hit.
                payload2, hit2 = client.get(key)
            assert hit2 is True
            assert payload2 == payload
            assert store.get(key) == payload
        finally:
            server.stop()

    def test_unregistered_experiment_is_a_typed_refusal(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        server = ServerThread(store)
        try:
            with FabricClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServeError):
                    client.get(_fake_key(0))  # cold + no kernel for FAKE
        finally:
            server.stop()

    def test_version_mismatch_is_a_typed_refusal(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = ResultKey(
            experiment="E2", params={"k": 2}, seed=None, version="not-the-code"
        )
        server = ServerThread(store)
        try:
            with FabricClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServeError):
                    client.get(key)
        finally:
            server.stop()


class _WrongDigestServer(threading.Thread):
    """A hand-rolled responder that answers every GET with a SERVE frame
    naming the wrong digest — the client must refuse the transfer."""

    def __init__(self):
        super().__init__(daemon=True)
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]

    def run(self):
        conn, _ = self._listener.accept()
        decoder = FabricFrameDecoder()
        with conn:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                for frame in decoder.feed(data):
                    if frame.kind != FabricFrameKind.GET:
                        return
                    reply = FabricFrame(
                        FabricFrameKind.SERVE,
                        {"index": 0, "digest": "f" * 64, "hit": True},
                        b"{}",
                    )
                    conn.sendall(encode_fabric_frame(reply))


def test_client_refuses_wrong_digest():
    server = _WrongDigestServer()
    server.start()
    with FabricClient("127.0.0.1", server.port, timeout=10.0) as client:
        with pytest.raises(ServeError, match="digest"):
            client.get(_fake_key(0))


def test_stop_is_quiet_when_the_loop_closes_first(tmp_path):
    """The loop may close between ``stop`` finding it and scheduling the
    cancel (the server ending on its own).  Force that order: the first
    ``call_soon_threadsafe`` from this thread ends the server, waits for
    its loop to close, then schedules, which a closed loop refuses."""
    server = ServerThread(ResultStore(str(tmp_path / "store")))
    loop = server._loop  # noqa: SLF001
    schedule = loop.call_soon_threadsafe
    caller = threading.current_thread()

    def close_first(callback, *args):
        if threading.current_thread() is caller and not loop.is_closed():
            schedule(lambda: [task.cancel() for task in asyncio.all_tasks()])
            server._thread.join(timeout=10)  # noqa: SLF001
            assert loop.is_closed()
        return schedule(callback, *args)

    loop.call_soon_threadsafe = close_first
    server.stop()
    assert loop.is_closed()
    server.stop()
