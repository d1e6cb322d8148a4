"""Output checks: pinned digests and per-operation verdicts.

Every table a workload renders, and every store cell it fills or
serves, is checked against a SHA-256 pinned in ``digests.json``.  The
pins were recorded from the default (vectorized) kernel and confirmed
against ``kernel="legacy"``, the independent engine pinned
bit-identical to it (``python3 perfbench/pin.py --check --kernel
legacy``).  Nothing here reads the committed ``benchmarks/results``
tables, which lag the default grids.

Direct protocol runs are checked against ``Task.evaluate`` and, for the
disjointness protocols, against the exact bigint simulators of
``repro.perf.kernels``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Ledger:
    """Counts operations (a table, a protocol run, a cell, a GET) and
    the ones that failed: a digest mismatch, a wrong output or an
    exception."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_table(ledger: Ledger, pins: Dict[str, str], label: str,
                rendered: str) -> bool:
    """One table operation: its rendered text must hash to the pin."""
    digest = sha256_text(rendered)
    expected = pins.get(label)
    return ledger.record(
        digest == expected,
        f"table {label}: sha256 {digest[:16]} != pinned "
        f"{(expected or 'missing')[:16]}",
    )


def check_payload(ledger: Ledger, pins: Dict[str, str], key_digest: str,
                  payload: Any, what: str, *, hit: bool = True) -> bool:
    """One store-cell or GET operation: the payload must hash to the
    pin recorded for its cell address, and a GET must be a store hit."""
    ok = hit and isinstance(payload, bytes) and (
        sha256_bytes(payload) == pins.get(key_digest)
    )
    return ledger.record(
        ok, f"{what} {key_digest[:16]}: hit={hit}, payload mismatch "
            "or missing" if not ok else "")


def check_run(ledger: Ledger, case: Any, outcome: Any, expected: Any,
              simulated: Any = None) -> bool:
    """One protocol run: the output must equal ``Task.evaluate``; with a
    simulator result ``(bits, output)``, bits and output must match it
    too."""
    ok = outcome.output == expected
    if simulated is not None:
        ok = ok and (outcome.bits_communicated, outcome.output) == tuple(
            simulated
        )
    return ledger.record(ok, f"run {case}: output {outcome.output!r}, "
                             f"expected {expected!r}")
