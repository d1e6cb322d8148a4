"""``repro.store`` — the content-addressed result store.

Every quantitative table this reproduction regenerates is a
deterministic function of a small spec (experiment id, cell parameters,
derived seed, algorithm version).  This subsystem computes each such
cell **once** and serves it forever after:

* :mod:`repro.store.keys` — canonical JSON spec serialization and the
  SHA-256 :class:`ResultKey` address, including the per-kernel
  code-version tag that makes stale entries unreachable after an
  algorithm change;
* :mod:`repro.store.store` — the atomic, CRC-sealed, file-backed
  :class:`ResultStore` (``get``/``put``/``contains``/``verify``/``gc``
  with size-bounded LRU eviction), safe under concurrent
  ``perf.map_grid`` workers;
* :mod:`repro.store.sweep` — :func:`checkpointed_map_grid`, the
  resumable sweep wrapper: an interrupted grid resumes from the last
  finished cell and a warm re-run is pure cache hits, byte-identical to
  a cold one;
* ``python -m repro.store`` — ``stats`` / ``verify`` / ``gc``
  maintenance CLI.

See ``docs/store.md`` for the key schema, the invalidation rules, and
the eviction policy.  The experiment CLI wires the store in via
``--store DIR``; ``python -m repro.fabric sweep E --store DIR`` fills it
over a worker pool first.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "keys": (
        "CODE_VERSIONS",
        "STORE_FORMAT",
        "ResultKey",
        "canonical_json",
        "code_version",
    ),
    "store": (
        "ResultStore",
        "StoreCorruptedError",
        "StoreEntry",
        "StoreError",
        "StoreStats",
        "VerifyReport",
        "atomic_write_bytes",
        "atomic_write_text",
    ),
    "sweep": ("checkpointed_map_grid", "decode_result", "encode_result"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "STORE_FORMAT",
    "CODE_VERSIONS",
    "ResultKey",
    "canonical_json",
    "code_version",
    "ResultStore",
    "StoreError",
    "StoreCorruptedError",
    "StoreEntry",
    "StoreStats",
    "VerifyReport",
    "atomic_write_bytes",
    "atomic_write_text",
    "checkpointed_map_grid",
    "encode_result",
    "decode_result",
]
