"""The three benchmark workloads.

Each workload has a ``prepare`` step (set-up: inputs drawn from the
seed, fresh store directories) and an ``execute`` step (the timed phase).
``execute`` calls only the program's public functions, checks every
output through a :class:`~checks.Ledger`, and returns the workload's
own named metrics plus ``slices``: the ``perf_counter`` intervals of
its request stream (tables, direct runs, warm table re-runs), in parts
spread over the run.  sweep-serve repeats its phases and also returns
the interval of each pass.  Workloads call ``reference.checkpoint()``
between their parts (see ``calibrate.py``).

* ``exact-info`` -- the exact analyzer (Theorem 1): E2 through k=48,
  E5, E10, E14.  Tree walk, information functionals, lower bounds and
  per-node protocol callbacks; almost no runner, store or network work.
  Exact values have no randomness, so it ignores the seed.
* ``protocol-runs`` -- message-level execution (Theorem 2 and the
  message-passing contrast): seeded direct ``run_protocol`` and
  ``run_on_medium`` calls, then E1 (seeded), E4, E7, E16.  Runner,
  protocols, topology, coding and the bigint simulators; almost no tree
  walking or store work.
* ``sweep-serve`` -- the infrastructure path: a faulted loopback E1, a
  fabric cold fill, a process-pool cold fill, warm re-runs from the
  store, and a result server under two closed-loop clients.  Net,
  fabric, store, grid and coding through writes and reads; almost no
  exact analysis.
"""

from __future__ import annotations

import importlib
import os
import random
import shutil
import statistics
import threading
import time
from typing import Any, Dict, List, Tuple

from calibrate import Reference
from checks import Ledger, check_payload, check_run, check_table

E2_KS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)

#: Direct runs per nominal second of ``--seconds``.
RUNS_PER_SECOND = 300
#: Warm re-run rounds and GET rounds per nominal second.
WARM_ROUNDS_PER_SECOND = 0.75
GET_ROUNDS_PER_SECOND = 2.0
GET_CLIENTS = 2
#: protocol-runs times the machine reference after this many runs.
CHECKPOINT_EVERY = 200
#: sweep-serve repeats its five phases on fresh stores, each time with
#: its own fault seed, and reports each phase's median.
SWEEP_REPS = 3

DISJOINTNESS_KINDS = ("optimal", "naive", "trivial", "coord_disj")
AND_KINDS = ("seq_and", "full_and", "coord_and", "ring_and")


Interval = Tuple[float, float]


def _run_table(ledger: Ledger, pins: Dict[str, str], label: str,
               module: str, kwargs: Dict[str, Any]) -> Interval:
    """Run one experiment table and check its digest; returns the
    ``perf_counter`` interval of the call."""
    run = importlib.import_module(module).run
    started = time.perf_counter()
    try:
        table = run(**kwargs)
    except Exception as exc:  # an exception is a failed operation
        ledger.record(False, f"table {label}: {type(exc).__name__}: {exc}")
        return started, time.perf_counter()
    ended = time.perf_counter()
    check_table(ledger, pins, label, table.render())
    return started, ended


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def latency_summary(prefix: str, latencies_s: List[float]) -> Dict[str, Any]:
    """p50 and p99 in ms, with the sample count and how many samples lie
    beyond p99 (at least ten for the p99 to be reported as such)."""
    if not latencies_s:
        return {}
    ms = [value * 1000.0 for value in latencies_s]
    p99 = _percentile(ms, 0.99)
    return {
        f"{prefix}_p50_ms": (statistics.median(ms), "ms"),
        f"{prefix}_p99_ms": (p99, "ms"),
        f"{prefix}_samples": (len(ms), "count"),
        f"{prefix}_beyond_p99": (sum(1 for v in ms if v > p99), "count"),
    }


# ----------------------------------------------------------------------
class ExactInfo:
    name = "exact-info"
    imports = "repro.experiments"
    uses_seed = False

    def prepare(self, seed: int, seconds: int, workdir: str) -> Dict:
        return {"tables": [
            ("E2", "repro.experiments.e2_and_information", {"ks": E2_KS}),
            ("E5", "repro.experiments.e5_gap", {}),
            ("E10", "repro.experiments.e10_divergence_decomposition", {}),
            ("E14", "repro.experiments.e14_optimal_information", {}),
        ]}

    def execute(self, plan: Dict, ledger: Ledger, pins: Dict,
                reference: Reference) -> Dict:
        ops: List[Interval] = []
        metrics: Dict[str, Any] = {}
        for label, module, kwargs in plan["tables"]:
            reference.checkpoint()
            ops.append(_run_table(ledger, pins["tables"], label, module,
                                  kwargs))
            metrics[f"{label}_s"] = (ops[-1][1] - ops[-1][0], "s")
        reference.checkpoint()
        return {"slices": [ops], "metrics": metrics}


# ----------------------------------------------------------------------
def _disjoint_instance(rng: random.Random, n: int, k: int) -> Tuple[int, ...]:
    """Random sets whose intersection is empty: every coordinate is
    removed from at least one random player."""
    masks = [rng.getrandbits(n) for _ in range(k)]
    for coordinate in range(n):
        masks[rng.randrange(k)] &= ~(1 << coordinate)
    return tuple(masks)


def _intersecting_instance(rng: random.Random, n: int,
                           k: int) -> Tuple[int, ...]:
    """Random sets sharing one planted coordinate."""
    shared = 1 << rng.randrange(n)
    return tuple(rng.getrandbits(n) | shared for _ in range(k))


def _case_mix() -> List[Tuple[str, Tuple[int, ...], bool]]:
    """One balanced round of ``(kind, size, disjoint)``: every
    disjointness kind on every size, half disjoint and half
    intersecting, and as many AND_k runs spread over every AND kind and
    size.  Fixing the mix keeps the seed from moving the average cost."""
    disjointness = [(kind, (n, k), disjoint)
                    for n in (64, 128, 256, 512)
                    for k in (4, 8, 16)
                    for disjoint in (True, False)
                    for kind in DISJOINTNESS_KINDS]
    conjunction = [(kind, (k,), False)
                   for k in (8, 16, 32, 64) for kind in AND_KINDS]
    conjunction *= len(disjointness) // len(conjunction)
    return [case for pair in zip(disjointness, conjunction) for case in pair]


def draw_cases(seed: int, count: int) -> List[Tuple[str, Tuple, Tuple]]:
    """``count`` seeded direct-run cases ``(kind, size, inputs)``: the
    balanced mix repeated, in a seeded order, with seeded inputs."""
    rng = random.Random(seed)
    mix = _case_mix()
    plan = [mix[index % len(mix)] for index in range(count)]
    rng.shuffle(plan)
    cases = []
    for kind, size, disjoint in plan:
        if kind in DISJOINTNESS_KINDS:
            draw = _disjoint_instance if disjoint else _intersecting_instance
            cases.append((kind, size, draw(rng, *size)))
        else:
            (k,) = size
            p_zero = 1.0 / (2 * k)
            cases.append((kind, size,
                          tuple(int(rng.random() >= p_zero)
                                for _ in range(k))))
    return cases


class ProtocolRuns:
    name = "protocol-runs"
    imports = "repro.experiments, repro.topology"
    uses_seed = True

    def prepare(self, seed: int, seconds: int, workdir: str) -> Dict:
        return {
            "cases": draw_cases(seed, RUNS_PER_SECOND * seconds),
            "tables": [
                ("E1", "repro.experiments.e1_disjointness_scaling",
                 {"seed": seed}),
                ("E4", "repro.experiments.e4_omega_k", {}),
                ("E7", "repro.experiments.e7_sampling_cost", {}),
                ("E16", "repro.experiments.e16_cross_model", {}),
            ],
        }

    def execute(self, plan: Dict, ledger: Ledger, pins: Dict,
                reference: Reference) -> Dict:
        from repro.core import runner
        from repro.core.tasks import and_task, disjointness_task
        from repro.perf import kernels
        from repro.protocols.and_protocols import (
            FullBroadcastAndProtocol,
            SequentialAndProtocol,
        )
        from repro.protocols.naive_disjointness import (
            NaiveDisjointnessProtocol,
        )
        from repro.protocols.optimal_disjointness import (
            OptimalDisjointnessProtocol,
        )
        from repro.protocols.trivial import TrivialDisjointnessProtocol
        from repro.topology import medium as media
        from repro.topology import protocols as mprotocols
        from repro.topology import runtime

        broadcast = {
            "optimal": (OptimalDisjointnessProtocol,
                        "simulate_optimal_disjointness"),
            "naive": (NaiveDisjointnessProtocol,
                      "simulate_naive_disjointness"),
            "trivial": (TrivialDisjointnessProtocol,
                        "simulate_trivial_disjointness"),
            "seq_and": (SequentialAndProtocol, None),
            "full_and": (FullBroadcastAndProtocol, None),
        }
        tasks: Dict[Tuple, Any] = {}
        slices: List[List[Interval]] = []
        messages = 0

        def direct_runs(cases) -> None:
            nonlocal messages
            ops: List[Interval] = []
            for index, (kind, size, inputs) in enumerate(cases):
                if index % CHECKPOINT_EVERY == 0:
                    reference.checkpoint()
                task = tasks.get(size)
                if task is None:
                    task = tasks[size] = (
                        disjointness_task(*size) if len(size) == 2
                        else and_task(*size)
                    )
                started = time.perf_counter()
                try:
                    if kind in broadcast:
                        outcome = runner.run_protocol(
                            broadcast[kind][0](*size), inputs)
                    elif kind == "coord_disj":
                        outcome = runtime.run_on_medium(
                            mprotocols.CoordinatorDisjointnessProtocol(*size),
                            media.COORDINATOR, inputs)
                    elif kind == "coord_and":
                        outcome = runtime.run_on_medium(
                            mprotocols.CoordinatorAndProtocol(*size),
                            media.COORDINATOR, inputs)
                    else:
                        outcome = runtime.run_on_medium(
                            mprotocols.RingTokenAndProtocol(*size),
                            media.ring_medium(*size), inputs)
                except Exception as exc:
                    ledger.record(False, f"run {kind}{size}: "
                                         f"{type(exc).__name__}: {exc}")
                    continue
                ops.append((started, time.perf_counter()))
                messages += outcome.rounds
                simulated = None
                simulator = broadcast.get(kind, (None, None))[1]
                if simulator is not None:
                    simulated = getattr(kernels, simulator)(*size, inputs)
                check_run(ledger, f"{kind}{size}", outcome,
                          task.evaluate(inputs), simulated)
            slices.append(ops)

        # The direct runs are spread between the tables, so their
        # latencies sample the whole timed phase, not one stretch of it.
        cases, tables = plan["cases"], plan["tables"]
        metrics: Dict[str, Any] = {}
        for index in range(len(tables) + 1):
            direct_runs(cases[index::len(tables) + 1])
            if index < len(tables):
                reference.checkpoint()
                label, module, kwargs = tables[index]
                started, ended = _run_table(ledger, pins["tables"], label,
                                            module, kwargs)
                metrics[f"{label}_s"] = (ended - started, "s")
        reference.checkpoint()
        latencies = [end - start for part in slices for start, end in part]
        run_s = sum(latencies)
        metrics.update({
            "runs": (len(latencies), "count"),
            "runs_per_s": (len(latencies) / run_s, "1/s"),
            "msgs_per_s": (messages / run_s, "1/s"),
        })
        metrics.update(latency_summary("run", latencies))
        return {"slices": slices, "metrics": metrics}


# ----------------------------------------------------------------------
QUICK_RUNS = (
    ("E1", "repro.experiments.e1_disjointness_scaling", {"quick": True}),
    ("E2", "repro.experiments.e2_and_information",
     {"ks": tuple(k for k in E2_KS if k <= 16)}),
    ("E4", "repro.experiments.e4_omega_k", {"ks": (16, 64)}),
    ("E14", "repro.experiments.e14_optimal_information",
     {"ks": (2, 3, 4, 6, 8)}),
    ("E16", "repro.experiments.e16_cross_model", {"quick": True}),
)


def _entry_count(root: str) -> int:
    return sum(len(files) for _, _, files in os.walk(root))


class SweepServe:
    name = "sweep-serve"
    imports = "repro.experiments, repro.fabric"
    uses_seed = True

    def prepare(self, seed: int, seconds: int, workdir: str) -> Dict:
        from repro.fabric.cells import SWEEPABLE_EXPERIMENTS, sweep_keys

        stores = []
        for rep in range(SWEEP_REPS):
            pair = {}
            for name in ("fabric", "pool"):
                path = os.path.join(workdir, f"store-{name}-{rep}")
                shutil.rmtree(path, ignore_errors=True)
                os.makedirs(path)
                pair[name] = path
            stores.append(pair)
        keys = [key for experiment in SWEEPABLE_EXPERIMENTS
                for key in sweep_keys(experiment, quick=True)]
        per_rep = seconds / SWEEP_REPS
        return {
            "fault_seeds": [seed * SWEEP_REPS + rep
                            for rep in range(SWEEP_REPS)],
            "stores": stores,
            "keys": keys,
            "warm_rounds": max(1, round(WARM_ROUNDS_PER_SECOND * per_rep)),
            "get_rounds": max(1, round(GET_ROUNDS_PER_SECOND * per_rep)),
        }

    def execute(self, plan: Dict, ledger: Ledger, pins: Dict,
                reference: Reference) -> Dict:
        phases: Dict[str, List[float]] = {}
        slices: List[List[Interval]] = []
        gets: List[float] = []
        get_s = 0.0
        passes: List[Interval] = []
        for rep in range(SWEEP_REPS):
            reference.checkpoint()
            started = time.perf_counter()
            rep_phases, warm, rep_gets, rep_get_s = self._rep(
                plan, rep, ledger, pins, reference)
            passes.append((started, time.perf_counter()))
            for name, value in rep_phases.items():
                phases.setdefault(name, []).append(value)
            slices.append(warm)
            gets.extend(rep_gets)
            get_s += rep_get_s
        reference.checkpoint()
        metrics: Dict[str, Any] = {
            name: (statistics.median(values),
                   "1/s" if name.endswith("per_s") else "s")
            for name, values in phases.items()
        }
        metrics["gets_per_s"] = (len(gets) / get_s, "1/s")
        metrics.update(latency_summary("get", gets))
        return {"slices": slices, "metrics": metrics, "passes": passes}

    def _rep(self, plan: Dict, rep: int, ledger: Ledger, pins: Dict,
             reference: Reference):
        """One pass of the five phases on fresh stores, with reference
        checkpoints between them; returns the phase metrics, the warm
        re-run intervals, and the GET latencies with the GET phase's
        seconds."""
        from repro.experiments.e1_disjointness_scaling import CLASSIC_GRID
        from repro.fabric.service import FabricClient, ServerThread
        from repro.fabric.sweep import fabric_sweep
        from repro.store.store import ResultStore

        phases: Dict[str, float] = {}
        tables, cells = pins["tables"], pins["cells"]
        stores = plan["stores"][rep]

        # 1. E1 over the loopback blackboard runtime with seeded faults.
        started, ended = _run_table(
            ledger, tables, "E1-net",
            "repro.experiments.e1_disjointness_scaling",
            {"grid": tuple(CLASSIC_GRID[:6]), "transport": "loopback",
             "fault_seed": plan["fault_seeds"][rep]},
        )
        net_run_s = ended - started
        phases["net_run_s"] = net_run_s
        phases["msgs_per_s"] = pins["net_messages"] / net_run_s

        # 2. Fabric cold fill of every quick sweep key.
        reference.checkpoint()
        fabric_store = ResultStore(stores["fabric"])
        keys = plan["keys"]
        started = time.perf_counter()
        try:
            fabric_sweep(keys, store=fabric_store, workers=2,
                         transport="loopback")
        except Exception as exc:
            ledger.record(False, f"fabric fill: {type(exc).__name__}: {exc}")
        phases["fabric_sweep_s"] = time.perf_counter() - started
        for key in keys:
            check_payload(ledger, cells, key.digest, fabric_store.get(key),
                          "fabric cell")

        # 3. The same experiments through the process pool, cold.
        reference.checkpoint()
        pool_store = ResultStore(stores["pool"])
        started = time.perf_counter()
        for label, module, kwargs in QUICK_RUNS:
            _run_table(ledger, tables, f"{label}-quick", module,
                       dict(kwargs, workers=2, store=pool_store))
        phases["pool_sweep_s"] = time.perf_counter() - started

        # 4. Warm re-runs: pure store hits, so no entry may be added.
        reference.checkpoint()
        entries = _entry_count(stores["pool"])
        warm: List[Interval] = []
        started = time.perf_counter()
        for _ in range(plan["warm_rounds"]):
            for label, module, kwargs in QUICK_RUNS:
                warm.append(_run_table(
                    ledger, tables, f"{label}-quick", module,
                    dict(kwargs, workers=2, store=pool_store)))
        warm_s = time.perf_counter() - started
        if _entry_count(stores["pool"]) != entries:
            ledger.record(False, "warm re-runs wrote to the store")
        phases["warm_cells_per_s"] = (
            plan["warm_rounds"] * len(keys) / warm_s)

        # 5. Serve the filled fabric store to closed-loop clients.
        reference.checkpoint()
        server = ServerThread(fabric_store, sweep_workers=2)
        latencies: List[List[float]] = [[] for _ in range(GET_CLIENTS)]
        results: List[List[Tuple[str, Any, bool]]] = [
            [] for _ in range(GET_CLIENTS)]
        errors: List[str] = []

        def client_loop(index: int) -> None:
            try:
                with FabricClient("127.0.0.1", server.port) as client:
                    for _ in range(plan["get_rounds"]):
                        for key in keys:
                            began = time.perf_counter()
                            payload, hit = client.get(key)
                            latencies[index].append(
                                time.perf_counter() - began)
                            results[index].append((key.digest, payload, hit))
            except Exception as exc:  # reported as a failed operation
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client_loop, args=(index,))
                   for index in range(GET_CLIENTS)]
        started = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            get_s = time.perf_counter() - started
            server.stop()
        for error in errors:
            ledger.record(False, f"GET client: {error}")
        for per_client in results:
            for digest, payload, hit in per_client:
                check_payload(ledger, cells, digest, payload, "GET", hit=hit)
        flat = [value for per_client in latencies for value in per_client]
        return phases, warm, flat, get_s


WORKLOADS = {w.name: w for w in (ExactInfo(), ProtocolRuns(), SweepServe())}
