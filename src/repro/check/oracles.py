"""The differential oracle inventory of the fuzz harness.

Each oracle takes one generated case (:class:`repro.check.generator.
GeneratedCase`) and checks one cross-layer agreement property:

==================== ==================================================
``model-discipline``  ``core.validate`` certifies the generated
                      protocol (prefix-freeness everywhere, replay
                      consistency, board-determined speakers).
``vectorized-vs-legacy`` the tree-walk engine, the dict-driven
                      shared walk it replaced, an independent per-input
                      DFS and an independent group-by walk produce
                      *bit-identical* joint laws; the columnar joint's
                      external information cost and first-seen
                      transcript codes match the scalar fold and an
                      independent column re-derivation.
``invariants``        the paper's structural identities on the
                      generated case: 0 ≤ IC ≤ H(Π) ≤ E[|Π|], the
                      round-by-round chain rule reproduces IC, and
                      Lemma 3's product decomposition reproduces every
                      transcript probability.
``networked-loopback`` the ``repro.net`` loopback execution (fault-free
                      *and* under the chaos fault plan) and an
                      independent k-replica simulation are all
                      bit-identical to ``run_protocol`` under the same
                      coin seed.
``byzantine-blackboard`` the Bracha reliable-broadcast layer
                      (``run_networked(..., byzantine=f)``) stays
                      bit-identical to ``run_protocol`` — on the
                      generated case with every party honest, and on a
                      derived ``k=4`` protocol with one actively lying
                      party under a seeded byzantine fault plan — and
                      an independent quorum-counting reference
                      (:func:`repro.check.mutations.
                      byzantine_reference`) agrees.
``store-roundtrip``   a result cached through ``repro.store`` is served
                      byte-identical to the freshly computed analysis,
                      a code-version bump makes the old entry
                      unreachable, corruption raises instead of
                      serving, and an independent minimal cell store
                      agrees on the served bytes.
``fabric-scheduler``  the production work-stealing lease scheduler of
                      ``repro.fabric`` and an independently re-derived
                      serial reference (:func:`repro.check.mutations.
                      fabric_schedule_reference`) replay the same
                      seeded event script (asks, completions, failures,
                      expiries, worker deaths) to *exactly* the same
                      dispatch log, completion set, and counters.
``topology-discipline`` a derived coordinator-medium protocol
                      (:class:`repro.check.generator.
                      GeneratedCoordinatorProtocol`) is certified
                      view-local by ``core.validate`` and every
                      execution's transcript, output, and
                      *per-link* bit accounting matches an independent
                      mini-runtime (:func:`repro.check.mutations.
                      topology_run_reference`) exactly.
==================== ==================================================

Every oracle carries a ``bugs`` tuple naming the planted defects of
:mod:`repro.check.mutations` it is proven to catch (its mutation
self-test); passing one of those names to :meth:`Oracle.check` routes
the mutated reference/implementation into the comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.analysis import (
    expected_communication,
    external_information_cost,
    transcript_joint,
)
from ..core.tree import joint_transcript_distribution, transcript_distribution
from ..core.validate import validate_protocol
from ..information.distribution import DiscreteDistribution
from ..information.entropy import entropy, mutual_information
from . import mutations
from .generator import GeneratedCase, derive_rng

__all__ = [
    "OracleResult",
    "Oracle",
    "DisciplineOracle",
    "VectorizedKernelOracle",
    "InvariantsOracle",
    "NetworkOracle",
    "ByzantineBlackboardOracle",
    "StoreRoundtripOracle",
    "FabricSchedulerOracle",
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


class VectorizedKernelOracle(Oracle):
    """The one tree-walk engine against independent references,
    item-for-item; and the external information cost of its columnar
    joint == the scalar fold over the dict-folded reference joint == an
    independent column re-derivation, float for float.

    :func:`repro.core.tree.joint_transcript_distribution` is
    compared, component names included, with the dict-driven shared
    walk it replaced (:func:`repro.check.mutations.shared_walk_joint`),
    an independent per-input DFS (:func:`repro.check.mutations.
    legacy_joint_transcript_distribution`) and an independent lockstep
    group-by walk (:func:`repro.check.mutations.vectorized_reference`);
    the information cost is compared on a case large enough to take
    the column path (the generated protocol, or up to six sequentially
    composed copies), and the transcript column must carry the
    first-seen codes of :func:`repro.check.mutations.
    columnar_information_cost`.  Each planted bug goes into the
    reference it belongs to, proving an engine bug of each class
    cannot slip through.
    """

    name = "vectorized-vs-legacy"
    bugs = (
        mutations.TREE_BUGS + mutations.VECTORIZED_BUGS + mutations.COLUMN_BUGS
    )

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        from ..information.entropy import _mutual_information_fold
        from ..perf import kernels

        walk_bug = bug if bug in mutations.VECTORIZED_BUGS else None
        column_bug = bug if bug in mutations.COLUMN_BUGS else None
        # Unknown names go to the DFS, which always runs and rejects them.
        tree_bug = None if walk_bug or column_bug else bug
        scenarios = case.input_dist.map(lambda x: (x,))
        engine = joint_transcript_distribution(
            case.protocol, scenarios, names=("inputs",)
        )
        references = [
            (
                "shared-walk reference",
                mutations.shared_walk_joint(
                    case.protocol, scenarios, names=("inputs",)
                ),
            ),
            (
                "per-input DFS",
                mutations.legacy_joint_transcript_distribution(
                    case.protocol, scenarios, names=("inputs",), bug=tree_bug
                ),
            ),
            (
                "group-by reference",
                mutations.vectorized_reference(
                    case.protocol, scenarios, names=("inputs",), bug=walk_bug
                ),
            ),
        ]
        engine_items = list(engine.items())
        for label, reference in references:
            if reference.names != engine.names:
                return self._fail(
                    f"{label} component names differ: {reference.names} vs "
                    f"{engine.names}"
                )
            reference_items = list(reference.items())
            if reference_items != engine_items:
                detail = _first_item_mismatch(engine_items, reference_items)
                return self._fail(
                    f"the engine is not bit-identical to the {label}: "
                    f"{detail}"
                )

        protocol, input_dist, copies = _column_case(case, len(engine_items))
        ic_columns = external_information_cost(protocol, input_dist)
        joint = transcript_joint(protocol, input_dist)
        codes = kernels.joint_columns(joint).codes[1].tolist()
        ic_fold = _mutual_information_fold(
            mutations.shared_walk_joint(
                protocol, input_dist.map(lambda x: (x,)), names=("inputs",)
            ),
            "transcript",
            "inputs",
        )
        ic_reference, reference_codes = mutations.columnar_information_cost(
            protocol, input_dist, bug=column_bug
        )
        if codes != reference_codes:
            return self._fail(
                "the columnar joint's transcript codes differ from the "
                f"first-seen reference codes (copies: {copies})"
            )
        if not ic_columns == ic_fold == ic_reference:
            return self._fail(
                "external information cost is not bit-identical: columns "
                f"{ic_columns!r}, scalar fold {ic_fold!r}, column "
                f"reference {ic_reference!r}"
            )
        return self._ok(
            f"{len(engine_items)} joint outcomes bit-identical across "
            f"references; IC over {len(codes)} columnar outcomes identical"
        )


def _column_case(
    case: GeneratedCase, outcomes: int
) -> Tuple[Any, DiscreteDistribution, int]:
    """The generated case, or enough sequentially composed copies of it
    (at most 6) that its joint reaches the column path's support."""
    from ..perf import kernels
    from ..protocols.composition import (
        SequentialCompositionProtocol,
        product_scenarios,
    )

    copies = 1
    while (
        outcomes > 1
        and outcomes**copies < kernels._VECTOR_MIN_SUPPORT  # noqa: SLF001
        and copies < 6
    ):
        copies += 1
    if copies == 1:
        return case.protocol, case.input_dist, 1
    return (
        SequentialCompositionProtocol(case.protocol, copies),
        product_scenarios([case.input_dist] * copies),
        copies,
    )


def _first_item_mismatch(
    subject: List[Tuple[Any, float]], reference: List[Tuple[Any, float]]
) -> str:
    if len(subject) != len(reference):
        return f"{len(subject)} outcomes vs {len(reference)}"
    for position, (ours, theirs) in enumerate(zip(subject, reference)):
        if ours != theirs:
            return f"first divergence at item {position}: {ours!r} vs {theirs!r}"
    return "unreachable"


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


class NetworkOracle(Oracle):
    """Networked loopback execution vs the in-memory runner — bit-identical.

    Three executions are compared on each input tuple, all under the
    same coin seed (``case.spec.seed``): the in-memory
    :func:`~repro.core.runner.run_protocol` (the ground truth), an
    independent k-replica simulation of the networked semantics
    (:func:`repro.check.mutations.networked_reference` — the planted-bug
    carrier), and the *production* :func:`repro.net.run_networked` over
    the deterministic loopback transport, both fault-free and under the
    all-classes chaos fault plan.  Any divergence in transcript, output,
    or ``bits_communicated`` is a failure — the equivalence the
    networking subsystem advertises is exact, so the comparison is too.
    """

    name = "networked-loopback"
    bugs = mutations.NET_BUGS
    #: Input tuples checked per case (the full families get swept by the
    #: dedicated ``tests/net`` suite; the fuzz oracle samples).
    max_inputs = 3

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        from ..core.runner import run_protocol
        from ..net import chaos_plan, run_networked

        seed = case.spec.seed
        checked = 0
        for inputs in case.input_tuples[: self.max_inputs]:
            truth = run_protocol(
                case.protocol, inputs, rng=random.Random(seed)
            )
            reference = mutations.networked_reference(
                case.protocol, inputs, seed, bug=bug
            )
            mismatch = _run_mismatch(truth, reference)
            if mismatch is not None:
                return self._fail(
                    f"k-replica simulation diverged on {inputs}: {mismatch}"
                )
            for label, faults in (
                ("fault-free", None),
                ("chaos", chaos_plan(seed)),
            ):
                networked = run_networked(
                    case.protocol, inputs, seed=seed, faults=faults
                )
                mismatch = _run_mismatch(truth, networked)
                if mismatch is not None:
                    return self._fail(
                        f"loopback run ({label}) diverged on {inputs}: "
                        f"{mismatch}"
                    )
            checked += 1
        return self._ok(
            f"{checked} input tuples bit-identical over loopback "
            "(fault-free and chaos)"
        )


def _run_mismatch(truth: Any, candidate: Any) -> Optional[str]:
    """First field on which two ProtocolRuns differ, or None."""
    if candidate.transcript != truth.transcript:
        return (
            f"transcript {candidate.transcript!r} != {truth.transcript!r}"
        )
    if candidate.output != truth.output:
        return f"output {candidate.output!r} != {truth.output!r}"
    if candidate.bits_communicated != truth.bits_communicated:
        return (
            f"bits {candidate.bits_communicated} != "
            f"{truth.bits_communicated}"
        )
    return None


class ByzantineBlackboardOracle(Oracle):
    """Bracha reliable broadcast beneath the blackboard — bit-identical.

    Two legs, both against the in-memory ground truth
    :func:`~repro.core.runner.run_protocol` under the case seed:

    1. *Generated case, every party honest.*  The production
       ``run_networked(..., byzantine=ByzantineConfig(f=f_max))`` with
       ``f_max = (k - 1) // 3`` (the largest tolerable fault budget for
       the case's ``k``) must be bit-identical in transcript, output,
       and ``bits_communicated`` — the Bracha layer is pure overhead
       when nobody lies.
    2. *Derived ``k=4`` adversarial run.*  Generated cases only reach
       ``k ∈ {2, 3}``, too small for a non-trivial quorum, so this leg
       derives its own protocol (the sequential AND family at ``k=4``,
       alternating the noisy variant by case index so coin draws enter
       the vote identity) and runs it with ``f=1`` while party 3
       actively equivocates, forges, and replays under a seeded
       :class:`~repro.net.faults.ByzantineFaultPlan`.  Since
       ``k > 3f``, the run must *still* be bit-identical.  The same
       execution is re-derived by the independent quorum-counting
       reference
       :func:`repro.check.mutations.byzantine_reference` — the
       planted-bug carrier: an ``accept-without-quorum`` or
       ``echo-replay-accepted`` defect delivers the adversary's value
       and shows up as a board mismatch.
    """

    name = "byzantine-blackboard"
    bugs = mutations.BYZANTINE_BUGS
    #: Input tuples checked per case on leg 1 (the exhaustive sweep
    #: lives in ``tests/net/test_byzantine.py``).
    max_inputs = 2

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        from ..core.runner import run_protocol
        from ..net import ByzantineConfig, ByzantineFaultPlan, run_networked
        from ..protocols import NoisySequentialAndProtocol, SequentialAndProtocol

        seed = case.spec.seed
        k = case.protocol.num_players
        f_max = (k - 1) // 3
        checked = 0
        for inputs in case.input_tuples[: self.max_inputs]:
            truth = run_protocol(
                case.protocol, inputs, rng=random.Random(seed)
            )
            honest = run_networked(
                case.protocol,
                inputs,
                seed=seed,
                byzantine=ByzantineConfig(f=f_max),
            )
            mismatch = _run_mismatch(truth, honest)
            if mismatch is not None:
                return self._fail(
                    f"honest byzantine run (f={f_max}) diverged on "
                    f"{inputs}: {mismatch}"
                )
            checked += 1

        index = case.index if case.index >= 0 else case.spec.seed
        if index % 2 == 0:
            derived = SequentialAndProtocol(4)
        else:
            derived = NoisySequentialAndProtocol(4, 0.25)
        inputs = (1, 1, 1, 1)
        truth = run_protocol(derived, inputs, rng=random.Random(seed))
        plan = ByzantineFaultPlan(
            seed=seed,
            parties=(3,),
            equivocate_rate=0.6,
            forge_rate=0.5,
            replay_rate=0.6,
        )
        attacked = run_networked(
            derived,
            inputs,
            seed=seed,
            byzantine=ByzantineConfig(f=1, plan=plan),
        )
        mismatch = _run_mismatch(truth, attacked)
        if mismatch is not None:
            return self._fail(
                f"k=4 f=1 run under the byzantine plan diverged: {mismatch}"
            )
        reference = mutations.byzantine_reference(
            derived, inputs, seed, f=1, bug=bug
        )
        mismatch = _run_mismatch(truth, reference)
        if mismatch is not None:
            return self._fail(
                f"quorum-counting reference diverged on the k=4 run: "
                f"{mismatch}"
            )
        return self._ok(
            f"{checked} honest tuples (f={f_max}) and the attacked "
            f"{type(derived).__name__} run bit-identical"
        )


class StoreRoundtripOracle(Oracle):
    """Cached serving through ``repro.store`` vs fresh computation.

    The fresh result is the case's exact analysis (information cost and
    expected communication) rendered as canonical JSON; a deliberately
    different *stale* payload plays the part of a result computed by an
    older kernel.  The production :class:`repro.store.ResultStore` (in a
    throwaway directory) must serve the fresh payload back
    byte-identical, report the key unreachable after a code-version
    bump, and raise :exc:`repro.store.StoreCorruptedError` when the
    entry file is truncated — never serve damaged bytes.  The served
    bytes are then compared against the independent minimal cell store
    of :func:`repro.check.mutations.store_serve` (the planted-bug
    carrier): a reference that addresses entries without the version
    tag serves the stale payload, and one that tears its envelope
    serves a short one, so either defect shows up as a byte mismatch.
    """

    name = "store-roundtrip"
    bugs = mutations.STORE_BUGS

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        import tempfile
        from dataclasses import replace

        from ..store import (
            ResultKey,
            ResultStore,
            StoreCorruptedError,
            canonical_json,
        )

        ic = mutual_information(
            transcript_joint(case.protocol, case.input_dist),
            "transcript",
            "inputs",
        )
        cost = expected_communication(case.protocol, case.input_dist)
        fresh = canonical_json(
            {"information_cost": ic, "expected_communication": cost}
        ).encode("ascii")
        # What an older kernel would have cached for the same cell: the
        # same schema with a visibly different value.
        stale = canonical_json(
            {"information_cost": ic + 1.0, "expected_communication": cost}
        ).encode("ascii")
        key = ResultKey(
            experiment="check.store-roundtrip",
            params={
                "players": case.protocol.num_players,
                "inputs": len(case.input_tuples),
            },
            seed=case.spec.seed,
            version="store-roundtrip-oracle/1",
        )

        with tempfile.TemporaryDirectory(prefix="repro-check-store-") as root:
            store = ResultStore(root)
            path = store.put(key, fresh)
            served = store.get(key)
            if served != fresh:
                return self._fail(
                    f"production store served {served!r} for a fresh put "
                    f"of {fresh!r}"
                )
            bumped = replace(key, version=key.version + "-bumped")
            if store.contains(bumped):
                return self._fail(
                    "entry is still reachable after a code-version bump: "
                    "stale results would be served for new kernels"
                )
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(blob[:-1])
            try:
                store.get(key)
            except StoreCorruptedError:
                pass
            else:
                return self._fail(
                    "truncated entry was served instead of raising "
                    "StoreCorruptedError"
                )

        reference = mutations.store_serve(
            fresh, stale, key.to_dict(), bug=bug
        )
        if reference != fresh:
            return self._fail(
                f"cell-store reference served {reference!r}, production "
                f"served {fresh!r}"
            )
        return self._ok(
            f"{len(fresh)}-byte result round-tripped byte-identical; "
            "version bump misses; truncation raises"
        )


class FabricSchedulerOracle(Oracle):
    """Production work-stealing lease scheduler vs serial reference.

    A seeded, state-independent event script — worker asks,
    completions, observable failures, clock ticks, worker deaths — is
    replayed against the production
    :class:`repro.fabric.scheduler.CellScheduler` and against the
    independently re-derived serial copy
    (:func:`repro.check.mutations.fabric_schedule_reference`), followed
    by the same deterministic round-robin drain.  The two must agree
    *exactly* on the full dispatch log (who got which cell, in order,
    stolen or not), the completion set, the steal / expiry / re-queue
    counters, and whether a cell exhausted its typed retry budget.
    ``done``/``fail`` events target the worker's smallest-indexed
    leased cell, so the script needs no knowledge of scheduler state
    and both sides interpret it identically.
    """

    name = "fabric-scheduler"
    bugs = mutations.FABRIC_BUGS
    lease_timeout = 2.0
    max_attempts = 6

    def _script(
        self, case: GeneratedCase
    ) -> Tuple[int, int, List[Tuple[str, int, float]]]:
        rng = derive_rng(case.spec.seed, "fabric-scheduler")
        num_cells = rng.randint(6, 12)
        num_workers = rng.randint(2, 3)
        events: List[Tuple[str, int, float]] = []
        now = 0.0
        for _ in range(rng.randint(30, 60)):
            now += rng.uniform(0.3, 1.2)
            roll = rng.random()
            worker = rng.randrange(num_workers)
            if roll < 0.45:
                events.append(("ask", worker, now))
            elif roll < 0.75:
                events.append(("done", worker, now))
            elif roll < 0.90:
                events.append(("tick", 0, now))
            elif roll < 0.95:
                events.append(("fail", worker, now))
            else:
                events.append(("drop", worker, now))
        return num_cells, num_workers, events

    def _drive_production(
        self,
        num_cells: int,
        num_workers: int,
        events: List[Tuple[str, int, float]],
        drain_steps: int,
    ) -> Dict[str, Any]:
        from ..fabric.scheduler import CellScheduler
        from ..net.errors import RetriesExhaustedError

        scheduler = CellScheduler(
            num_cells,
            num_workers,
            lease_timeout=self.lease_timeout,
            max_attempts=self.max_attempts,
        )

        def done(worker: int) -> None:
            owned = scheduler.leased_to(worker)
            if owned:
                scheduler.complete(worker, owned[0])

        def fail(worker: int) -> None:
            owned = scheduler.leased_to(worker)
            if owned:
                scheduler.fail(worker, owned[0])

        exhausted = False
        now = 0.0
        try:
            for kind, worker, at in events:
                now = at
                if kind == "ask":
                    scheduler.next_cell(worker, at)
                elif kind == "done":
                    done(worker)
                elif kind == "fail":
                    fail(worker)
                elif kind == "tick":
                    scheduler.expire(at)
                else:  # "drop"
                    scheduler.drop_worker(worker)
            for step in range(drain_steps):
                if scheduler.done:
                    break
                now += 1.0
                worker = step % num_workers
                scheduler.expire(now)
                scheduler.next_cell(worker, now)
                done(worker)
        except RetriesExhaustedError:
            exhausted = True
        return {
            "dispatch_log": tuple(scheduler.dispatch_log),
            "completed": tuple(scheduler.completed_cells),
            "steals": scheduler.steals,
            "expirations": scheduler.expirations,
            "requeues": scheduler.requeues,
            "exhausted": exhausted,
        }

    def check(self, case: GeneratedCase, bug: Optional[str] = None) -> OracleResult:
        num_cells, num_workers, events = self._script(case)
        drain_steps = 10 * (num_cells + num_workers)
        production = self._drive_production(
            num_cells, num_workers, events, drain_steps
        )
        reference = mutations.fabric_schedule_reference(
            num_cells,
            num_workers,
            events,
            lease_timeout=self.lease_timeout,
            max_attempts=self.max_attempts,
            drain_steps=drain_steps,
            bug=bug,
        )
        for field_name in (
            "dispatch_log",
            "completed",
            "steals",
            "expirations",
            "requeues",
            "exhausted",
        ):
            if production[field_name] != reference[field_name]:
                return self._fail(
                    f"{num_cells} cells / {num_workers} workers: "
                    f"{field_name} diverged — production "
                    f"{production[field_name]!r} vs reference "
                    f"{reference[field_name]!r}"
                )
        return self._ok(
            f"{num_cells} cells / {num_workers} workers: "
            f"{len(production['dispatch_log'])} dispatches "
            f"({production['steals']} steals, "
            f"{production['expirations']} expiries) agree exactly"
        )


class TopologyDisciplineOracle(Oracle):
    """Coordinator-medium discipline: view-locality certified, and the
    runner's per-link accounting re-derived independently.

    Like ``byzantine-blackboard``, this oracle derives its own protocol from the case — a
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
    VectorizedKernelOracle(),
    InvariantsOracle(),
    NetworkOracle(),
    ByzantineBlackboardOracle(),
    StoreRoundtripOracle(),
    FabricSchedulerOracle(),
    TopologyDisciplineOracle(),
)


def oracle_by_name(name: str) -> Oracle:
    for oracle in ALL_ORACLES:
        if oracle.name == name:
            return oracle
    raise KeyError(
        f"unknown oracle {name!r}; known: {[o.name for o in ALL_ORACLES]}"
    )
