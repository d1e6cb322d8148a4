"""Exact ``ResultStore.get`` verdicts for crafted entries.

Each case writes an entry file by hand (or copies one to another key's
address) and records what ``get`` does with it: serve the payload,
report a miss (``None``), or raise :class:`StoreCorruptedError` with an
exact message.  Any change to how a hit is verified must leave every
verdict here as it is.
"""

import json
import os
import shutil

import pytest

from repro.coding.integrity import seal
from repro.store import ResultKey, ResultStore, StoreCorruptedError
from repro.store.store import MAGIC, encode_entry

KEY = ResultKey(
    experiment="E2", params={"k": 3}, seed=None, version="e2-and-cic/1"
)
OTHER = ResultKey(
    experiment="E2", params={"k": 4}, seed=None, version="e2-and-cic/1"
)
PAYLOAD = b'{"cic":1.1887218755408671}'


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


def _write(store, key, blob):
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(blob)


def _sealed(header, payload):
    body = len(header).to_bytes(4, "big") + header + payload
    return MAGIC + seal(body)


def _misfile(store, held, key):
    """Copy ``held``'s entry file to ``key``'s address."""
    target = store.path_for(key)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    shutil.copyfile(store.path_for(held), target)


def _raised(store, key):
    """The text of the :class:`StoreCorruptedError` ``get`` raises."""
    with pytest.raises(StoreCorruptedError) as excinfo:
        store.get(key)
    return str(excinfo.value)


def _holds(store, key, held):
    """The error text for ``key``'s address holding key ``held``."""
    return (
        f"entry at {store.path_for(key)} holds key {held}, "
        f"expected {key.digest[:12]}"
    )


def test_addresses_are_pinned():
    assert KEY.digest == (
        "140a7e2dc2e9d0038f609791d9d6f5574ebf6f77a277b17a90a7a9ba8ec40273"
    )


def test_missing_entry_is_a_miss(store):
    assert store.get(KEY) is None


def test_valid_entry_serves_its_payload(store):
    store.put(KEY, PAYLOAD)
    assert store.get(KEY) == PAYLOAD


def test_hand_built_canonical_entry_equals_encode_entry(store):
    header = (
        b'{"key":{"experiment":"E2","format":"repro.store/1",'
        b'"params":{"k":3},"seed":null,"version":"e2-and-cic/1"},'
        b'"payload_bytes":26}'
    )
    assert _sealed(header, PAYLOAD) == encode_entry(KEY, PAYLOAD)


@pytest.mark.parametrize(
    "spelling",
    ["spaced", "reordered", "indented"],
)
def test_non_canonical_header_spelling_is_served(store, spelling):
    # The same key spelled differently, resealed so the CRC holds: the
    # header parses to the requested key, so the entry is a hit.
    header = {"key": KEY.to_dict(), "payload_bytes": len(PAYLOAD)}
    if spelling == "spaced":
        text = json.dumps(header, sort_keys=True)
    elif spelling == "reordered":
        text = json.dumps(
            {"payload_bytes": len(PAYLOAD),
             "key": dict(reversed(list(KEY.to_dict().items())))},
            separators=(",", ":"),
        )
    else:
        text = json.dumps(header, indent=2)
    blob = _sealed(text.encode("ascii"), PAYLOAD)
    assert blob != encode_entry(KEY, PAYLOAD)
    _write(store, KEY, blob)
    assert store.get(KEY) == PAYLOAD


def test_another_keys_entry_at_this_address_is_corrupt(store):
    store.put(OTHER, PAYLOAD)
    _misfile(store, OTHER, KEY)
    assert _raised(store, KEY) == _holds(store, KEY, OTHER.digest[:12])
    assert OTHER.digest[:12] == "1d85f8171794"


def test_payload_bytes_mismatch_is_corrupt(store):
    header = json.dumps(
        {"key": KEY.to_dict(), "payload_bytes": len(PAYLOAD) + 1},
        sort_keys=True, separators=(",", ":"),
    ).encode("ascii")
    _write(store, KEY, _sealed(header, PAYLOAD))
    assert _raised(store, KEY) == "payload is 26 bytes, header promised 27"


def test_tuple_params_round_trip_as_lists(store):
    # Tuples and lists share one canonical spelling, so both keys have
    # one address; the entry's parsed key holds a list, which equals
    # the list-valued key only.
    as_tuple = ResultKey("E1", {"point": (64, 4)}, 7, "e1/1")
    as_list = ResultKey("E1", {"point": [64, 4]}, 7, "e1/1")
    assert as_tuple.digest == as_list.digest
    assert as_tuple.digest[:12] == "d065ea61dee8"
    store.put(as_tuple, PAYLOAD)
    assert _raised(store, as_tuple) == _holds(
        store, as_tuple, as_tuple.digest[:12]
    )
    assert store.get(as_list) == PAYLOAD


def test_int_and_float_params_have_distinct_addresses(store):
    as_int = ResultKey("E2", {"k": 1}, None, "v")
    as_float = ResultKey("E2", {"k": 1.0}, None, "v")
    assert as_int == as_float
    assert as_int.digest != as_float.digest
    store.put(as_int, PAYLOAD)
    assert store.get(as_float) is None
    assert store.get(as_int) == PAYLOAD


def test_int_entry_at_float_address_is_corrupt(store):
    as_int = ResultKey("E2", 1, None, "v")
    as_float = ResultKey("E2", 1.0, None, "v")
    store.put(as_int, PAYLOAD)
    _misfile(store, as_int, as_float)
    assert _raised(store, as_float) == _holds(
        store, as_float, as_int.digest[:12]
    )
    assert as_int.digest[:12] == "137dc70b82f2"


def test_float_entry_at_int_address_is_corrupt(store):
    as_int = ResultKey("E2", 1, None, "v")
    as_float = ResultKey("E2", 1.0, None, "v")
    store.put(as_float, PAYLOAD)
    _misfile(store, as_float, as_int)
    assert _raised(store, as_int) == _holds(
        store, as_int, as_float.digest[:12]
    )
    assert as_float.digest[:12] == "a15dcd4d40c0"
