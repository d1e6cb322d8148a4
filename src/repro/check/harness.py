"""The fuzz-harness driver: generate → certify → differentially check.

:func:`run_suite` drives the whole pipeline for ``python -m repro.check``
and the pytest integration: it generates the seeded case stream, runs
every oracle on every case, and on failure shrinks the case to a minimal
witness and serializes a replayable bundle
(:mod:`repro.check.bundle`).  A wall-clock budget makes it safe to run
under CI time caps: the suite stops cleanly (and reports how far it got)
rather than being killed.

Observability: when :data:`repro.obs.REGISTRY` is enabled the harness
feeds three counters — ``check_cases`` (labeled by overall verdict),
``check_oracle_runs`` (labeled by oracle and verdict) and
``check_failures`` (labeled by oracle) — and emits one ``check_case``
trace event per case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY
from ..obs.trace import get_tracer
from .bundle import ReproBundle, write_bundle
from .generator import GeneratedCase, generate_case
from .oracles import ALL_ORACLES, Oracle, OracleResult
from .shrink import shrink_case

__all__ = ["CaseReport", "SuiteReport", "run_case", "run_suite"]


@dataclass(frozen=True)
class CaseReport:
    """All oracle results for one case."""

    case: GeneratedCase
    results: Tuple[OracleResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> Tuple[OracleResult, ...]:
        return tuple(result for result in self.results if not result.ok)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one harness run."""

    master_seed: int
    cases_requested: int
    cases_run: int
    elapsed_seconds: float
    failures: Tuple[CaseReport, ...]
    bundle_paths: Tuple[str, ...]
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def run_case(
    case: GeneratedCase,
    *,
    oracles: Sequence[Oracle] = ALL_ORACLES,
) -> CaseReport:
    """Run the oracle inventory on one case (stopping at nothing: every
    oracle reports, so a bundle shows the full failure signature)."""
    reg = REGISTRY if REGISTRY.enabled else None
    results: List[OracleResult] = []
    for oracle in oracles:
        try:
            result = oracle.check(case)
        except Exception as error:  # an oracle crash is a failure too
            result = OracleResult(
                oracle=oracle.name,
                ok=False,
                details=f"oracle raised {type(error).__name__}: {error}",
            )
        results.append(result)
        if reg is not None:
            reg.counter("check_oracle_runs").inc(
                oracle=oracle.name, verdict="ok" if result.ok else "fail"
            )
            if not result.ok:
                reg.counter("check_failures").inc(oracle=oracle.name)
    report = CaseReport(case=case, results=tuple(results))
    tracer = get_tracer()
    if tracer:
        tracer.event(
            "check_case",
            index=case.index,
            seed=case.spec.seed,
            positions=case.spec.num_positions,
            players=case.spec.num_players,
            ok=report.ok,
            failing=[result.oracle for result in report.failures],
        )
    if reg is not None:
        reg.counter("check_cases").inc(verdict="ok" if report.ok else "fail")
    return report


def _still_fails(
    oracles: Sequence[Oracle], failing_names: Sequence[str]
) -> Callable[[GeneratedCase], bool]:
    chosen = [oracle for oracle in oracles if oracle.name in set(failing_names)]

    def predicate(candidate: GeneratedCase) -> bool:
        return any(not oracle.check(candidate).ok for oracle in chosen)

    return predicate


def run_suite(
    master_seed: int,
    cases: int,
    *,
    oracles: Sequence[Oracle] = ALL_ORACLES,
    bundle_dir: Optional[str] = None,
    max_seconds: Optional[float] = None,
    shrink: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SuiteReport:
    """Generate and check ``cases`` cases from the seeded stream.

    On failure the case is shrunk (re-running only the oracles that
    failed) and, when ``bundle_dir`` is given, a replayable bundle is
    written there.  ``max_seconds`` bounds wall clock: generation stops
    once the budget is spent (already-started cases finish).
    ``progress`` is called as ``progress(done, total)`` after each case.
    """
    if cases < 0:
        raise ValueError(f"cases must be >= 0, got {cases}")
    tracer = get_tracer()
    started = time.monotonic()
    failures: List[CaseReport] = []
    bundle_paths: List[str] = []
    cases_run = 0
    budget_exhausted = False
    with tracer.span("check_suite", seed=master_seed, cases=cases):
        for index in range(cases):
            if (
                max_seconds is not None
                and time.monotonic() - started > max_seconds
            ):
                budget_exhausted = True
                break
            case = generate_case(master_seed, index)
            report = run_case(case, oracles=oracles)
            cases_run += 1
            if not report.ok:
                failures.append(report)
                shrunk = case
                if shrink:
                    failing_names = [r.oracle for r in report.failures]
                    shrunk = shrink_case(
                        case, _still_fails(oracles, failing_names)
                    )
                if bundle_dir is not None:
                    bundle = ReproBundle(
                        master_seed=master_seed,
                        case_index=case.index,
                        spec=case.spec,
                        shrunk_spec=shrunk.spec,
                        failures=report.failures,
                    )
                    bundle_paths.append(write_bundle(bundle_dir, bundle))
            if progress is not None:
                progress(cases_run, cases)
    return SuiteReport(
        master_seed=master_seed,
        cases_requested=cases,
        cases_run=cases_run,
        elapsed_seconds=time.monotonic() - started,
        failures=tuple(failures),
        bundle_paths=tuple(bundle_paths),
        budget_exhausted=budget_exhausted,
    )
