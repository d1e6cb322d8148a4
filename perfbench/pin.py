"""Record or confirm the pinned output digests in ``digests.json``.

Usage, from the repository root::

    python3 perfbench/pin.py --check [--kernel legacy]
    python3 perfbench/pin.py --write

Every table is computed serially in memory with no store, so the pins
are independent of the transports, pools and stores the workloads push
the same computations through.  ``--check --kernel legacy`` recomputes
everything with the pure-Python engine, which is pinned bit-identical
to the default vectorized one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import DIGESTS_PATH, load_digests, sha256_bytes, sha256_text  # noqa: E402
from workloads import QUICK_RUNS, WORKLOADS  # noqa: E402


def table_specs():
    """``(label, module, kwargs)`` for every table any workload renders."""
    from repro.experiments.e1_disjointness_scaling import CLASSIC_GRID

    specs = list(WORKLOADS["exact-info"].prepare(0, 1, "")["tables"])
    specs += [(label, module, {k: v for k, v in kwargs.items()
                               if k != "seed"})
              for label, module, kwargs
              in WORKLOADS["protocol-runs"].prepare(0, 1, "")["tables"]]
    specs.append(("E1-net", "repro.experiments.e1_disjointness_scaling",
                  {"grid": tuple(CLASSIC_GRID[:6])}))
    specs += [(f"{label}-quick", module, kwargs)
              for label, module, kwargs in QUICK_RUNS]
    return specs


def net_messages() -> int:
    """Messages the three disjointness protocols write on the E1-net
    grid: the work behind ``msgs_per_s`` of the networked phase."""
    from repro.core.runner import run_protocol
    from repro.experiments.e1_disjointness_scaling import CLASSIC_GRID
    from repro.experiments.workloads import partition_instance
    from repro.protocols.naive_disjointness import NaiveDisjointnessProtocol
    from repro.protocols.optimal_disjointness import (
        OptimalDisjointnessProtocol,
    )
    from repro.protocols.trivial import TrivialDisjointnessProtocol

    total = 0
    for n, k in CLASSIC_GRID[:6]:
        inputs = partition_instance(n, k)
        for cls in (OptimalDisjointnessProtocol, NaiveDisjointnessProtocol,
                    TrivialDisjointnessProtocol):
            total += run_protocol(cls(n, k), inputs).rounds
    return total


def compute() -> dict:
    import importlib

    from repro.fabric.cells import (
        SWEEPABLE_EXPERIMENTS,
        compute_cell_payload,
        sweep_keys,
    )

    tables = {}
    for label, module, kwargs in table_specs():
        table = importlib.import_module(module).run(**kwargs)
        tables[label] = sha256_text(table.render())
        print(f"{label:10} {tables[label]}", flush=True)
    cells = {
        key.digest: sha256_bytes(compute_cell_payload(key))
        for experiment in SWEEPABLE_EXPERIMENTS
        for key in sweep_keys(experiment, quick=True)
    }
    return {"tables": tables, "cells": cells, "net_messages": net_messages()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    parser.add_argument("--kernel", choices=("legacy", "vectorized"))
    args = parser.parse_args(argv)
    from repro.perf import kernels

    kernels.set_kernel(args.kernel)
    digests = compute()
    if args.write:
        with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {DIGESTS_PATH}")
        return 0
    pinned = load_digests()
    mismatched = [
        f"{section}/{name}"
        for section in ("tables", "cells")
        for name in sorted(set(pinned[section]) | set(digests[section]))
        if pinned[section].get(name) != digests[section].get(name)
    ]
    if pinned["net_messages"] != digests["net_messages"]:
        mismatched.append("net_messages")
    for name in mismatched:
        print(f"MISMATCH {name}")
    print(f"{len(mismatched)} mismatches "
          f"(kernel {kernels.get_kernel()})")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
