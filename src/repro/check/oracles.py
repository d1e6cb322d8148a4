"""The oracle inventory of the fuzz harness.

Each oracle takes one generated case (:class:`repro.check.generator.
GeneratedCase`) and checks what no fixed tier-1 input can: a property
of an *arbitrary* valid protocol.

==================== ==================================================
``model-discipline``  ``core.validate`` certifies the generated
                      protocol (prefix-freeness everywhere, replay
                      consistency, board-determined speakers).
``invariants``        the paper's structural identities on the
                      generated case: 0 ≤ IC ≤ H(Π) ≤ E[|Π|], the
                      round-by-round chain rule reproduces IC, and
                      Lemma 3's product decomposition reproduces every
                      transcript probability.
``topology-discipline`` a derived coordinator-medium protocol
                      (:class:`repro.check.generator.
                      GeneratedCoordinatorProtocol`) is certified
                      view-local by ``core.validate`` and every
                      execution's transcript, output, and
                      *per-link* bit accounting matches an independent
                      mini-runtime (:func:`repro.check.mutations.
                      topology_run_reference`) exactly.
==================== ==================================================

The engine, network, store and scheduler contracts are pinned by
tier-1 tests instead (``docs/testing.md`` names them).  Every oracle
carries a ``bugs`` tuple naming the planted defects of
:mod:`repro.check.mutations` it is proven to catch (its mutation
self-test); passing one of those names to :meth:`Oracle.check` routes
the mutated reference/implementation into the comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.analysis import expected_communication, transcript_joint
from ..core.tree import transcript_distribution
from ..core.validate import validate_protocol
from ..information.entropy import entropy, mutual_information
from . import mutations
from .generator import GeneratedCase

__all__ = [
    "OracleResult",
    "Oracle",
    "DisciplineOracle",
    "InvariantsOracle",
    "TopologyDisciplineOracle",
    "ALL_ORACLES",
    "oracle_by_name",
]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle on one case."""

    oracle: str
    ok: bool
    details: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "ok": self.ok, "details": self.details}


class Oracle:
    """Base class: a named check with a tuple of plantable bugs."""

    #: Oracle name (stable; used by the CLI's ``--oracles`` filter and in
    #: repro bundles).
    name: str = ""
    #: Planted-bug names (see :mod:`repro.check.mutations`) this oracle's
    #: mutation self-test proves it catches.
    bugs: Tuple[str, ...] = ()

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        raise NotImplementedError

    def _fail(self, details: str) -> OracleResult:
        return OracleResult(oracle=self.name, ok=False, details=details)

    def _ok(self, details: str = "") -> OracleResult:
        return OracleResult(oracle=self.name, ok=True, details=details)


class DisciplineOracle(Oracle):
    """``validate_protocol`` must certify every generated instance."""

    name = "model-discipline"
    bugs = mutations.DISCIPLINE_BUGS

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        protocol = case.protocol
        if bug is not None:
            protocol = mutations.wrap_discipline_bug(protocol, bug)
        report = validate_protocol(protocol, case.input_tuples)
        if not report.ok:
            return self._fail(
                "validate_protocol rejected the instance: "
                + "; ".join(report.problems[:3])
            )
        return self._ok(f"{report.states_checked} boards certified")


class InvariantsOracle(Oracle):
    """The paper's structural identities on the generated case itself."""

    name = "invariants"
    bugs = mutations.CHAIN_RULE_BUGS + mutations.FACTOR_BUGS

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        if bug is not None and bug not in self.bugs:
            raise ValueError(
                f"unknown planted bug {bug!r}; known: {self.bugs}"
            )
        protocol, input_dist = case.protocol, case.input_dist
        joint = transcript_joint(protocol, input_dist)
        ic = mutual_information(joint, "transcript", "inputs")
        transcript_entropy = entropy(joint.marginal("transcript"))
        communication = expected_communication(protocol, input_dist)
        if ic < -1e-9:
            return self._fail(f"negative information cost {ic!r}")
        if ic > transcript_entropy + 1e-9:
            return self._fail(
                f"IC {ic:.9f} exceeds transcript entropy "
                f"{transcript_entropy:.9f}"
            )
        if transcript_entropy > communication + 1e-9:
            return self._fail(
                f"transcript entropy {transcript_entropy:.9f} exceeds "
                f"expected communication {communication:.9f} (Kraft "
                "violation: messages are prefix-free)"
            )
        chain_bug = bug if bug in mutations.CHAIN_RULE_BUGS else None
        chain = mutations.chain_rule_information(protocol, input_dist, bug=chain_bug)
        if abs(chain - ic) > 1e-6:
            return self._fail(
                f"chain rule broke: realized-divergence sum {chain:.9f} "
                f"!= IC {ic:.9f}"
            )
        factor_bug = bug if bug in mutations.FACTOR_BUGS else None
        mismatch = self._lemma3_mismatch(case, factor_bug)
        if mismatch is not None:
            return self._fail(mismatch)
        return self._ok(
            f"IC {ic:.4f} <= H {transcript_entropy:.4f} <= CC "
            f"{communication:.4f}; chain rule and Lemma 3 hold"
        )

    @staticmethod
    def _lemma3_mismatch(
        case: GeneratedCase, bug: Optional[str]
    ) -> Optional[str]:
        for inputs in case.input_tuples:
            exact = transcript_distribution(case.protocol, inputs)
            for transcript, probability in exact.items():
                rebuilt = mutations.factor_probability(
                    case.protocol, transcript, inputs, bug=bug
                )
                if abs(rebuilt - probability) > 1e-9:
                    return (
                        f"Lemma 3 product {rebuilt:.9f} != transcript "
                        f"probability {probability:.9f} for inputs "
                        f"{inputs} and transcript {transcript.bit_string()!r}"
                    )
        return None


class TopologyDisciplineOracle(Oracle):
    """Coordinator-medium discipline: view-locality certified, and the
    runner's per-link accounting re-derived independently.

    This oracle derives its own protocol from the case — a
    :class:`~repro.check.generator.GeneratedCoordinatorProtocol` at
    ``k ∈ {2, 3}`` (alternating by case index), whose every law is
    keyed on the speaker's own view by construction.  Two legs:

    1. *Locality audit.*  :func:`repro.core.validate.
       validate_protocol` (``medium=COORDINATOR``) over the full binary
       input family must certify the protocol on :data:`~repro.topology.
       medium.COORDINATOR` — scheduler locality, view locality, per-view
       prefix-freeness, replay consistency, edge validity.  The
       ``view-leak`` planted bug (:func:`repro.check.mutations.
       wrap_topology_bug`) keys player laws on invisible traffic and
       must be rejected here.
    2. *Runtime vs reference.*  Every input tuple is executed by the
       production :func:`repro.topology.runtime.run_on_medium` and by
       the independent mini-runtime :func:`repro.check.mutations.
       topology_run_reference` under the same seed; transcripts,
       outputs, total bits, and the per-link breakdown must agree
       exactly.  The ``wrong-link-charge`` planted bug shifts the
       reference's charge accounting by one message and must surface
       as a ``bits_by_link`` mismatch.
    """

    name = "topology-discipline"
    bugs = mutations.TOPOLOGY_BUGS

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        from ..topology.medium import COORDINATOR
        from ..topology.runtime import run_on_medium
        from .generator import GeneratedCoordinatorProtocol

        index = case.index if case.index >= 0 else case.spec.seed
        k = 2 + index % 2
        protocol = GeneratedCoordinatorProtocol(case.spec.seed, k)
        subject = (
            mutations.wrap_topology_bug(protocol, bug)
            if bug is not None
            else protocol
        )
        family = protocol.input_tuples()

        report = validate_protocol(subject, family, medium=COORDINATOR)
        if not report.ok:
            return self._fail(
                "validate_protocol rejected the instance: "
                + "; ".join(report.problems[:3])
            )

        seed = case.spec.seed
        for inputs in family:
            production = run_on_medium(
                protocol, COORDINATOR, inputs, rng=random.Random(seed)
            )
            reference = mutations.topology_run_reference(
                protocol, COORDINATOR, inputs, seed, bug=bug
            )
            produced_rows = tuple(
                (m.speaker, m.link, m.bits) for m in production.transcript
            )
            if produced_rows != reference["transcript"]:
                return self._fail(
                    f"transcript diverged on {inputs}: {produced_rows!r} "
                    f"vs {reference['transcript']!r}"
                )
            if production.output != reference["output"]:
                return self._fail(
                    f"output diverged on {inputs}: {production.output!r} "
                    f"vs {reference['output']!r}"
                )
            if production.bits_communicated != reference["bits_communicated"]:
                return self._fail(
                    f"total bits diverged on {inputs}: "
                    f"{production.bits_communicated} vs "
                    f"{reference['bits_communicated']}"
                )
            if production.bits_by_link != reference["bits_by_link"]:
                return self._fail(
                    f"per-link bits diverged on {inputs}: "
                    f"{production.bits_by_link!r} vs "
                    f"{reference['bits_by_link']!r}"
                )
        return self._ok(
            f"k={k}: {report.states_checked} states certified "
            f"view-local; {len(family)} runs match the reference per link"
        )


#: The full inventory, in the order the harness runs them (cheap and
#: structural first so a malformed case fails fast).
ALL_ORACLES: Tuple[Oracle, ...] = (
    DisciplineOracle(),
    InvariantsOracle(),
    TopologyDisciplineOracle(),
)


def oracle_by_name(name: str) -> Oracle:
    for oracle in ALL_ORACLES:
        if oracle.name == name:
            return oracle
    raise KeyError(
        f"unknown oracle {name!r}; known: {[o.name for o in ALL_ORACLES]}"
    )
