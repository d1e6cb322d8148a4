"""Replayable repro bundles for failing fuzz cases.

A bundle is a single JSON file that pins everything needed to reproduce
one failure on another machine: the spec of the original case, the spec
of its shrunk witness, the failing oracle results, and the CLI
invocation that produced it.  Because every generated case is a pure
function of its spec (see :mod:`repro.check.spec`), replaying a bundle
is just rebuilding the case and re-running the oracles — no RNG state
needs to be captured.

Replay::

    python -m repro.check --replay path/to/bundle.json

or, from code, :func:`replay_bundle`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .generator import GeneratedCase, case_from_spec
from .oracles import ALL_ORACLES, Oracle, OracleResult, oracle_by_name
from .spec import CaseSpec

__all__ = [
    "BUNDLE_FORMAT",
    "ReproBundle",
    "write_bundle",
    "load_bundle",
    "replay_bundle",
]

BUNDLE_FORMAT = "repro.check/bundle/1"


@dataclass(frozen=True)
class ReproBundle:
    """One serialized failure: specs, failing results, provenance."""

    master_seed: Optional[int]
    case_index: int
    spec: CaseSpec
    shrunk_spec: CaseSpec
    failures: Tuple[OracleResult, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": BUNDLE_FORMAT,
            "master_seed": self.master_seed,
            "case_index": self.case_index,
            "spec": self.spec.to_dict(),
            "shrunk_spec": self.shrunk_spec.to_dict(),
            "failures": [result.to_dict() for result in self.failures],
            "replay": "python -m repro.check --replay <this file>",
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReproBundle":
        if payload.get("format") != BUNDLE_FORMAT:
            raise ValueError(
                f"unsupported bundle format {payload.get('format')!r}"
            )
        return cls(
            master_seed=payload.get("master_seed"),
            case_index=int(payload.get("case_index", -1)),
            spec=CaseSpec.from_dict(payload["spec"]),
            shrunk_spec=CaseSpec.from_dict(payload["shrunk_spec"]),
            failures=tuple(
                OracleResult(
                    oracle=f["oracle"], ok=bool(f["ok"]), details=f["details"]
                )
                for f in payload.get("failures", [])
            ),
        )

    @property
    def failing_oracles(self) -> List[str]:
        return [result.oracle for result in self.failures if not result.ok]


def write_bundle(
    directory: str,
    bundle: ReproBundle,
) -> str:
    """Serialize ``bundle`` under ``directory`` and return its path."""
    os.makedirs(directory, exist_ok=True)
    name = f"case-{bundle.case_index}-seed-{bundle.spec.seed}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bundle(path: str) -> ReproBundle:
    with open(path, "r", encoding="utf-8") as handle:
        return ReproBundle.from_dict(json.load(handle))


def replay_bundle(
    path: str,
    *,
    oracles: Optional[Sequence[Oracle]] = None,
) -> List[OracleResult]:
    """Rebuild a bundle's minimized witness and re-run its failing
    oracles.

    If ``oracles`` is not given, the bundle's own failing-oracle names
    are used (falling back to the full inventory when the bundle lists
    none).
    """
    bundle = load_bundle(path)
    case = case_from_spec(bundle.shrunk_spec, index=bundle.case_index)
    if oracles is None:
        names = bundle.failing_oracles
        oracles = (
            [oracle_by_name(name) for name in names] if names else ALL_ORACLES
        )
    return [oracle.check(case) for oracle in oracles]
