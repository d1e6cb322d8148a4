"""The content-addressed, on-disk result store.

Layout
------
One file per entry, addressed by the key's SHA-256 digest and fanned out
over 256 subdirectories to keep directory listings short::

    <root>/objects/<digest[:2]>/<digest>.res

Entry file format (everything after the magic is CRC-sealed)::

    +-----------+----------------------------------------------+-------+
    | magic 8 B | body                                         | CRC-32|
    +-----------+----------------------------------------------+-------+
      body = header-length (4 B big-endian)
           | header JSON (canonical; the full key + payload size)
           | payload bytes (opaque to the store)

Decoding is strict: a bad magic, a checksum mismatch, a header length
that overruns the body, unparseable header JSON, a payload whose length
disagrees with the header, or a header key that does not hash to the
file's address all raise :class:`StoreCorruptedError`.  Because the
CRC-32 seal (:mod:`repro.coding.integrity`) covers the entire body, any
single-bit flip anywhere in an entry file is detected — a corrupted
entry can *never* be served as a cached result.

Durability and concurrency
--------------------------
Writes are atomic: the blob goes to a temporary file in the destination
directory and is published with :func:`os.replace`.  A crash (even
SIGKILL) mid-``put`` leaves at most a stray temp file, never a torn
entry; two processes putting the same key concurrently both publish a
complete, identical entry and the last rename wins.  That makes the
store safe as the shared cache under concurrent
:func:`repro.perf.map_grid` workers with no locking at all.

A SIGKILL in the window between the temp write and the rename *orphans*
the ``.tmp-*`` file: it is invisible to ``get`` (entries are addressed
by digest) but eats disk forever.  The maintenance surface sweeps such
orphans: :meth:`ResultStore.stats` counts them, :meth:`verify_all`
reports them (``--delete`` reclaims), and :meth:`gc` — as well as the
explicit :meth:`sweep_tmp` — removes orphans older than
``tmp_max_age_s`` (an age gate so a concurrent in-flight ``put``'s live
temp file is never yanked out from under it).

Eviction
--------
The store is size-bounded via :meth:`ResultStore.gc`: entries are
evicted least-recently-used first (access time is the file mtime, which
``get`` refreshes) until the configured ``max_bytes`` is met.  Keys
*touched this run* — read or written through this ``ResultStore``
instance — are never evicted by its own ``gc``, so a sweep can safely
garbage-collect mid-run without eating its own checkpoint.

Observability
-------------
When :data:`repro.obs.REGISTRY` is enabled the store feeds four
counters — ``store_hits`` / ``store_misses`` (labeled by experiment),
``store_bytes`` (labeled by direction) and ``store_evictions`` — and
emits one ``store_get`` / ``store_put`` tracer event per call.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..coding.integrity import IntegrityError, seal, unseal
from ..obs.metrics import REGISTRY
from ..obs.trace import get_tracer
from .keys import ResultKey, canonical_json

__all__ = [
    "DEFAULT_TMP_MAX_AGE_S",
    "MAGIC",
    "StoreError",
    "StoreCorruptedError",
    "StoreEntry",
    "StoreStats",
    "VerifyReport",
    "ResultStore",
    "atomic_write_bytes",
    "atomic_write_text",
]

#: Leading magic of every entry file (8 bytes, version-bearing).
MAGIC = b"RPSTORE1"

_HEADER_LEN_BYTES = 4
_SUFFIX = ".res"
_TMP_PREFIX = ".tmp-"

#: Orphaned ``.tmp-*`` files younger than this are presumed to belong
#: to an in-flight ``put`` and are left alone by the sweepers.
DEFAULT_TMP_MAX_AGE_S = 3600.0


class StoreError(Exception):
    """Base class for result-store failures."""


class StoreCorruptedError(StoreError):
    """An entry file failed an integrity check (checksum, structure, or
    key/address mismatch) and must not be served."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` stays on one filesystem; readers observe either
    the previous complete file or the new complete file, never a torn
    intermediate — the invariant both the store and the experiment
    tables lean on.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=_TMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str, *, encoding: str = "utf-8") -> None:
    """Atomic text-file counterpart of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


def encode_entry(key: ResultKey, payload: bytes) -> bytes:
    """Serialize one store entry to its sealed on-disk bytes."""
    header = canonical_json(
        {"key": key.to_dict(), "payload_bytes": len(payload)}
    ).encode("ascii")
    body = (
        len(header).to_bytes(_HEADER_LEN_BYTES, "big") + header + payload
    )
    return MAGIC + seal(body)


def _entry_header(canonical_key: bytes, payload_bytes: int) -> bytes:
    """The header :func:`encode_entry` writes for a key whose canonical
    serialization is ``canonical_key``, spliced without re-serializing
    the key."""
    return b'{"key":%s,"payload_bytes":%d}' % (canonical_key, payload_bytes)


def decode_entry(blob: bytes) -> Tuple[ResultKey, bytes]:
    """Parse and *fully verify* entry bytes; returns ``(key, payload)``.

    Raises :class:`StoreCorruptedError` on any structural or integrity
    violation.  The CRC seal is checked first and covers everything
    after the magic, so every single-bit flip in the file is caught
    here.
    """
    key, _, payload = _decode_entry(blob)
    return key, payload


def _decode_entry(blob: bytes) -> Tuple[ResultKey, bytes, bytes]:
    """:func:`decode_entry`, also returning the raw header bytes."""
    if not blob.startswith(MAGIC):
        raise StoreCorruptedError("bad magic; not a store entry")
    try:
        body = unseal(blob[len(MAGIC):])
    except IntegrityError as error:
        raise StoreCorruptedError(str(error)) from None
    if len(body) < _HEADER_LEN_BYTES:
        raise StoreCorruptedError("entry body too short for a header length")
    header_len = int.from_bytes(body[:_HEADER_LEN_BYTES], "big")
    header_end = _HEADER_LEN_BYTES + header_len
    if header_end > len(body):
        raise StoreCorruptedError(
            f"header length {header_len} overruns the entry body"
        )
    header_bytes = body[_HEADER_LEN_BYTES:header_end]
    try:
        header = json.loads(header_bytes.decode("ascii"))
        key_dict = header["key"]
        key = ResultKey(
            experiment=key_dict["experiment"],
            params=key_dict["params"],
            seed=key_dict["seed"],
            version=key_dict["version"],
        )
        payload_bytes = header["payload_bytes"]
    except (ValueError, KeyError, TypeError) as error:
        raise StoreCorruptedError(f"unparseable entry header: {error}") from None
    payload = body[header_end:]
    if len(payload) != payload_bytes:
        raise StoreCorruptedError(
            f"payload is {len(payload)} bytes, header promised "
            f"{payload_bytes}"
        )
    return key, header_bytes, payload


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk entry as seen by stats/gc (no payload)."""

    digest: str
    path: str
    size: int
    mtime: float


@dataclass(frozen=True)
class StoreStats:
    """Aggregate store statistics (``python -m repro.store stats``)."""

    root: str
    entries: int
    total_bytes: int
    by_experiment: Dict[str, int]
    #: Orphaned ``.tmp-*`` files (a SIGKILL between temp-write and
    #: rename) and the bytes they hold.
    tmp_files: int = 0
    tmp_bytes: int = 0

    def render(self) -> str:
        lines = [
            f"store at {self.root}",
            f"  entries:     {self.entries}",
            f"  total bytes: {self.total_bytes}",
        ]
        for experiment in sorted(self.by_experiment):
            lines.append(
                f"  {experiment:<16} {self.by_experiment[experiment]} entries"
            )
        if self.tmp_files:
            lines.append(
                f"  orphaned tmp: {self.tmp_files} files, "
                f"{self.tmp_bytes} bytes (reclaim with gc or "
                f"verify --delete)"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a full-store verification pass."""

    checked: int
    corrupt: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()
    #: Orphaned ``.tmp-*`` files found next to the entries.  Not
    #: corruption — ``get`` can never serve them — so they do not fail
    #: :attr:`ok`, but ``delete=True`` reclaims them too.
    orphaned: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.corrupt


class ResultStore:
    """A persistent, content-addressed result store rooted at ``root``.

    Parameters
    ----------
    root:
        Directory holding the store (created lazily on first ``put``).
    max_bytes:
        Default size bound for :meth:`gc` (``None`` = unbounded).
    """

    def __init__(self, root: str, *, max_bytes: Optional[int] = None) -> None:
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        #: Digests read or written through this instance — this run's
        #: working set, which :meth:`gc` refuses to evict.
        self._touched: set = set()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, key: ResultKey) -> str:
        digest = key.digest
        return self._path_for_digest(digest)

    def _path_for_digest(self, digest: str) -> str:
        return os.path.join(
            self.root, "objects", digest[:2], digest + _SUFFIX
        )

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def put(self, key: ResultKey, payload: bytes) -> str:
        """Persist ``payload`` under ``key`` (atomic); returns the path."""
        digest = key.digest
        path = self._path_for_digest(digest)
        blob = encode_entry(key, payload)
        atomic_write_bytes(path, blob)
        self._touched.add(digest)
        reg = REGISTRY if REGISTRY.enabled else None
        if reg is not None:
            reg.counter("store_bytes").inc(len(payload), direction="write")
        get_tracer().event(
            "store_put",
            experiment=key.experiment,
            digest=digest[:12],
            payload_bytes=len(payload),
        )
        return path

    def get(self, key: ResultKey) -> Optional[bytes]:
        """The payload stored under ``key``, or ``None`` on a miss.

        A hit is fully verified (checksum, structure, and that the
        entry's embedded key matches the requested one); any violation
        raises :class:`StoreCorruptedError` rather than serving bytes
        that are not provably the cached result.  The key is serialized
        once: a header spelled exactly as :func:`encode_entry` writes
        it proves the embedded key hashes to the address, and only
        another spelling is re-serialized and hashed.
        """
        canonical, digest = key.canonical()
        path = self._path_for_digest(digest)
        reg = REGISTRY if REGISTRY.enabled else None
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            if reg is not None:
                reg.counter("store_misses").inc(experiment=key.experiment)
            get_tracer().event(
                "store_get", experiment=key.experiment,
                digest=digest[:12], hit=False,
            )
            return None
        stored_key, header, payload = _decode_entry(blob)
        if (
            header != _entry_header(canonical, len(payload))
            and stored_key.digest != digest
        ) or stored_key != key:
            raise StoreCorruptedError(
                f"entry at {path} holds key {stored_key.digest[:12]}, "
                f"expected {digest[:12]}"
            )
        try:
            os.utime(path, None)  # refresh LRU recency
        except OSError:  # pragma: no cover - entry raced away
            pass
        self._touched.add(digest)
        if reg is not None:
            reg.counter("store_hits").inc(experiment=key.experiment)
            reg.counter("store_bytes").inc(len(payload), direction="read")
        get_tracer().event(
            "store_get", experiment=key.experiment,
            digest=digest[:12], hit=True,
        )
        return payload

    def contains(self, key: ResultKey) -> bool:
        """Whether an entry file exists for ``key`` (no verification)."""
        return os.path.exists(self.path_for(key))

    def delete(self, key: ResultKey) -> bool:
        """Remove ``key``'s entry if present; returns whether it was."""
        path = self.path_for(key)
        try:
            os.unlink(path)
        except FileNotFoundError:
            return False
        self._touched.discard(key.digest)
        return True

    def verify(self, key: ResultKey) -> bytes:
        """Re-read and fully verify ``key``'s entry, returning the
        payload; raises :class:`StoreError` if absent,
        :class:`StoreCorruptedError` if damaged."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            raise StoreError(f"no entry for {key}") from None
        stored_key, payload = decode_entry(blob)
        if stored_key != key:
            raise StoreCorruptedError(
                f"entry at {path} embeds a different key"
            )
        return payload

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[StoreEntry]:
        """Every entry file, in deterministic (digest) order."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(_SUFFIX):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:  # pragma: no cover - raced unlink
                    continue
                yield StoreEntry(
                    digest=name[: -len(_SUFFIX)],
                    path=path,
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                )

    def tmp_files(self) -> Iterator[StoreEntry]:
        """Every orphaned ``.tmp-*`` file (a write that never reached
        its rename), in deterministic order.  ``digest`` is the bare
        file name — temp files have no content address."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.startswith(_TMP_PREFIX):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:  # pragma: no cover - raced unlink
                    continue
                yield StoreEntry(
                    digest=name,
                    path=path,
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                )

    def sweep_tmp(
        self, *, max_age_s: float = DEFAULT_TMP_MAX_AGE_S
    ) -> List[str]:
        """Remove orphaned ``.tmp-*`` files older than ``max_age_s``
        seconds (age-gated so a concurrent in-flight ``put``'s live temp
        file survives); returns the removed paths."""
        import time

        cutoff = time.time() - max_age_s
        removed: List[str] = []
        for orphan in self.tmp_files():
            if orphan.mtime > cutoff:
                continue
            try:
                os.unlink(orphan.path)
            except OSError:  # pragma: no cover - raced unlink
                continue
            removed.append(orphan.path)
        return removed

    def stats(self) -> StoreStats:
        """Aggregate statistics (reads every header)."""
        entries = 0
        total = 0
        by_experiment: Dict[str, int] = {}
        for entry in self.entries():
            entries += 1
            total += entry.size
            try:
                with open(entry.path, "rb") as handle:
                    key, _ = decode_entry(handle.read())
                label = key.experiment
            except (OSError, StoreCorruptedError):
                label = "<corrupt>"
            by_experiment[label] = by_experiment.get(label, 0) + 1
        orphans = list(self.tmp_files())
        return StoreStats(
            root=self.root,
            entries=entries,
            total_bytes=total,
            by_experiment=by_experiment,
            tmp_files=len(orphans),
            tmp_bytes=sum(orphan.size for orphan in orphans),
        )

    def verify_all(self, *, delete: bool = False) -> VerifyReport:
        """Verify every entry; optionally delete the corrupt ones."""
        checked = 0
        corrupt: List[str] = []
        removed: List[str] = []
        for entry in self.entries():
            checked += 1
            try:
                with open(entry.path, "rb") as handle:
                    key, _ = decode_entry(handle.read())
                if key.digest != entry.digest:
                    raise StoreCorruptedError(
                        "entry content does not hash to its address"
                    )
            except (OSError, StoreCorruptedError):
                corrupt.append(entry.path)
                if delete:
                    try:
                        os.unlink(entry.path)
                        removed.append(entry.path)
                    except OSError:  # pragma: no cover - raced unlink
                        pass
        orphaned: List[str] = []
        for orphan in self.tmp_files():
            orphaned.append(orphan.path)
            if delete:
                try:
                    os.unlink(orphan.path)
                    removed.append(orphan.path)
                except OSError:  # pragma: no cover - raced unlink
                    pass
        return VerifyReport(
            checked=checked,
            corrupt=tuple(corrupt),
            removed=tuple(removed),
            orphaned=tuple(orphaned),
        )

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def gc(
        self,
        max_bytes: Optional[int] = None,
        *,
        tmp_max_age_s: float = DEFAULT_TMP_MAX_AGE_S,
    ) -> List[str]:
        """Evict least-recently-used entries until the store fits in
        ``max_bytes`` (default: the constructor's bound).

        Entries touched through this instance this run are *never*
        evicted — a sweep's own checkpoint is sacrosanct — so the bound
        is best-effort when the working set alone exceeds it.  Returns
        the evicted digests (deterministic order: oldest first, digest
        as tie-break).

        Orphaned ``.tmp-*`` files older than ``tmp_max_age_s`` are
        always swept first (even with no byte bound) — they are
        unreachable by construction, so reclaiming them can never evict
        anything a reader could want.
        """
        self.sweep_tmp(max_age_s=tmp_max_age_s)
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            return []
        entries = sorted(
            self.entries(), key=lambda e: (e.mtime, e.digest)
        )
        total = sum(entry.size for entry in entries)
        evicted: List[str] = []
        reg = REGISTRY if REGISTRY.enabled else None
        for entry in entries:
            if total <= bound:
                break
            if entry.digest in self._touched:
                continue
            try:
                os.unlink(entry.path)
            except OSError:  # pragma: no cover - raced unlink
                continue
            total -= entry.size
            evicted.append(entry.digest)
            if reg is not None:
                reg.counter("store_evictions").inc()
        return evicted
