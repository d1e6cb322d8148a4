"""Canonical result addressing: spec serialization and content hashes.

Every cacheable result in this repository is a *deterministic* function
of a small spec: which experiment kernel ran, the cell's parameters, the
derived seed (when the kernel consumes randomness), and — crucially —
which *version* of the kernel's algorithm produced it.  A
:class:`ResultKey` pins all four down and hashes their canonical JSON
serialization with SHA-256; the hex digest is the entry's address in
:class:`repro.store.store.ResultStore`.

Two properties carry the whole cache contract:

* **Canonical serialization.**  :func:`canonical_json` is injective on
  the value domain it accepts (sorted keys, no whitespace variance,
  tuples and lists identified, ``allow_nan`` off), so equal specs always
  hash to the same address and distinct specs never collide by
  formatting accident.
* **Version tags.**  Each kernel registers a code-version tag in
  :data:`CODE_VERSIONS`.  The tag participates in the hash, so bumping
  it (which any PR changing the kernel's algorithm must do) changes
  every affected address — stale entries are not "invalidated", they
  simply become unreachable, and a fresh run repopulates the new
  addresses.  Unreachable entries are reclaimed by ``gc``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "STORE_FORMAT",
    "CODE_VERSIONS",
    "ResultKey",
    "canonical_json",
    "code_version",
]

#: Envelope/key format tag; participates in every digest, so a future
#: incompatible layout never collides with today's entries.
STORE_FORMAT = "repro.store/1"

#: Per-kernel code-version tags.  **Bump the tag whenever the kernel's
#: algorithm (or anything upstream that changes its output) changes** —
#: that is the one rule keeping cached results byte-identical to fresh
#: computation forever.  Experiments look their tag up with
#: :func:`code_version`; an unregistered kernel is a hard error, so a
#: new cacheable sweep cannot forget to pick a tag.
CODE_VERSIONS: Dict[str, str] = {
    "E1": "e1-disjointness-worstcase/1",
    "E2": "e2-and-cic/1",
    "E4": "e4-lemma6-cliff/1",
    "E14": "e14-rectangle-dp/1",
    "E14-external": "e14-external-ic/1",
    "E16": "e16-cross-model/1",
    "E16-info": "e16-per-view-info/1",
}


def code_version(kernel: str) -> str:
    """The registered code-version tag of ``kernel`` (raises for an
    unregistered kernel rather than silently sharing addresses)."""
    try:
        return CODE_VERSIONS[kernel]
    except KeyError:
        raise ValueError(
            f"kernel {kernel!r} has no registered code version; add it to "
            f"repro.store.keys.CODE_VERSIONS (known: {sorted(CODE_VERSIONS)})"
        ) from None


def _normalize(value: Any, path: str) -> Any:
    """Recursively reduce ``value`` to the canonical JSON value domain.

    Accepted: ``None``, ``bool``, ``int``, finite ``float``, ``str``,
    ``list``/``tuple`` (both become JSON arrays; their subclasses, such
    as messages and links, do not), and ``dict`` with string keys.
    Everything else — and non-finite floats, whose JSON
    spelling is not portable — is rejected, because a value that cannot
    be serialized canonically cannot be addressed reproducibly.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float at {path}: {value!r}")
        return value
    if type(value) in (list, tuple):
        return [
            _normalize(item, f"{path}[{i}]") for i, item in enumerate(value)
        ]
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise ValueError(
                    f"non-string mapping key at {path}: {key!r}"
                )
            out[key] = _normalize(value[key], f"{path}.{key}")
        return out
    raise ValueError(
        f"value at {path} is not canonically serializable: "
        f"{type(value).__name__}"
    )


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to its one canonical JSON spelling.

    Sorted keys, minimal separators, ASCII-only escapes, tuples
    flattened to arrays, NaN/Infinity rejected: the same logical value
    always yields the same byte string on every platform, which is what
    makes SHA-256 of it a usable address.
    """
    return _CANONICAL_ENCODER.encode(_normalize(value, "$"))


#: The one encoder behind :func:`canonical_json` (``json.dumps`` with
#: these options would build a new encoder on every call).
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    ensure_ascii=True,
    allow_nan=False,
)


@dataclass(frozen=True)
class ResultKey:
    """The full address of one cached result.

    Attributes
    ----------
    experiment:
        The kernel / experiment id (``"E1"``, ``"E14"``,
        ...).
    params:
        The cell parameters — any canonically serializable value (for a
        grid sweep, typically the grid point plus every kwarg that
        influences the computed value).
    seed:
        The per-cell derived seed when the kernel consumes randomness,
        else ``None``.  Part of the address, so sweeps under different
        seeds never share entries.
    version:
        The kernel's code-version tag (see :data:`CODE_VERSIONS`).
        Because it participates in the digest, an entry written by an
        older algorithm can never be served after the tag is bumped.
    """

    experiment: str
    params: Any
    seed: Optional[int]
    version: str

    def to_dict(self) -> Dict[str, Any]:
        """The canonical mapping whose JSON serialization is hashed."""
        return self._mapping(_normalize(self.params, "$.params"))

    def _mapping(self, params: Any) -> Dict[str, Any]:
        return {
            "format": STORE_FORMAT,
            "experiment": self.experiment,
            "params": params,
            "seed": self.seed,
            "version": self.version,
        }

    def canonical(self) -> Tuple[bytes, str]:
        """The canonical key serialization (ASCII bytes) and its SHA-256
        hex digest, from one serialization.

        Nothing is cached on the instance: ``params`` may be a mutable
        mapping, so every call serializes the key as it is now.
        """
        # canonical_json normalizes the whole mapping, params included,
        # so the params go in raw rather than normalized twice.
        payload = canonical_json(self._mapping(self.params)).encode("ascii")
        return payload, hashlib.sha256(payload).hexdigest()

    @property
    def digest(self) -> str:
        """SHA-256 hex digest of the canonical key serialization — the
        entry's content address."""
        return self.canonical()[1]

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"{self.experiment}@{self.version} seed={self.seed} "
            f"{self.digest[:12]}"
        )
