"""``repro.check`` — seeded random-protocol fuzzing with property
oracles.

The subsystem has four layers (see ``docs/testing.md`` for the guide):

* :mod:`repro.check.spec` / :mod:`repro.check.generator` — serializable
  case specs and the seeded generator of arbitrary valid broadcast
  protocols (certified by ``core.validate`` before any oracle runs);
* :mod:`repro.check.oracles` — the oracle inventory: model discipline,
  the paper's invariants and topology discipline on generated protocols
  (the engine, network, store and scheduler contracts are tier-1 tests,
  named in ``docs/testing.md``);
* :mod:`repro.check.mutations` — independent reference implementations
  with plantable bugs, powering each oracle's mutation self-test, and
  the exact engine's retired twins that ``reference_engines`` swaps in;
* :mod:`repro.check.harness` / :mod:`repro.check.shrink` /
  :mod:`repro.check.bundle` — the driver, the spec-level shrinker, and
  replayable failure bundles, all behind ``python -m repro.check``."""

from .bundle import ReproBundle, load_bundle, replay_bundle, write_bundle
from .generator import (
    GeneratedCase,
    GeneratedProtocol,
    case_from_spec,
    derive_rng,
    generate_case,
    random_prefix_code,
    random_spec,
)
from .harness import CaseReport, SuiteReport, run_case, run_suite
from .oracles import (
    ALL_ORACLES,
    DisciplineOracle,
    InvariantsOracle,
    Oracle,
    OracleResult,
    oracle_by_name,
)
from .shrink import shrink_case, shrink_candidates
from .spec import SPEC_FORMAT, CaseSpec

__all__ = [
    "CaseSpec",
    "SPEC_FORMAT",
    "GeneratedCase",
    "GeneratedProtocol",
    "derive_rng",
    "random_prefix_code",
    "random_spec",
    "case_from_spec",
    "generate_case",
    "Oracle",
    "OracleResult",
    "ALL_ORACLES",
    "oracle_by_name",
    "DisciplineOracle",
    "InvariantsOracle",
    "CaseReport",
    "SuiteReport",
    "run_case",
    "run_suite",
    "shrink_case",
    "shrink_candidates",
    "ReproBundle",
    "write_bundle",
    "load_bundle",
    "replay_bundle",
]
