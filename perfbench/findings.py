"""Per-layer split of single experiment calls, for the findings in
README.md.

Usage, from the repository root::

    python3 perfbench/findings.py            # E2 at k=48, then E1's default grid

Each call runs once untraced and once traced (``layers.Tracing``), and
the layers are printed by self time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import Tracing  # noqa: E402

CALLS = (
    ("E2 at k=48", "repro.experiments.e2_and_information", {"ks": (48,)}),
    ("E1 default grid", "repro.experiments.e1_disjointness_scaling", {}),
)


def split(label: str, module: str, kwargs: dict) -> None:
    run = importlib.import_module(module).run
    started = time.perf_counter()
    run(**kwargs)
    untraced = time.perf_counter() - started
    tracing = Tracing()
    tracing.install()
    try:
        started = time.perf_counter()
        importlib.import_module(module).run(**kwargs)
        traced = time.perf_counter() - started
    finally:
        tracing.remove()
    rows = [(entry["self_s"], name, entry["calls"])
            for name, entry in tracing.layer_times().items()
            if name != "<root>"]
    rows.append((tracing.callback_s, "protocols.callbacks",
                 tracing.callback_calls))
    print(f"{label}: untraced {untraced:.2f} s, traced {traced:.2f} s")
    for self_s, name, calls in sorted(rows, reverse=True)[:8]:
        print(f"  {name:44} {self_s:8.3f} s self "
              f"{100 * self_s / traced:5.1f}%  {calls:>9} calls")


if __name__ == "__main__":
    for call in CALLS:
        split(*call)
