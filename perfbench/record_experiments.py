"""One-off record: default-grid wall time and peak RSS of E1..E16.

Each experiment runs in a fresh interpreter, with the default kernel and
no store, so its peak RSS is its own.  Too slow for every benchmark run
(E2 alone takes about a minute), so it is run by hand::

    python3 perfbench/record_experiments.py [--out perfbench/results/experiments.json]

from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from machine import machine_record  # noqa: E402

_CHILD = (
    "import hashlib, resource, sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "from repro.experiments import ALL_EXPERIMENTS\n"
    "started = time.perf_counter()\n"
    "table = ALL_EXPERIMENTS[sys.argv[1]]()\n"
    "elapsed = time.perf_counter() - started\n"
    "peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "digest = hashlib.sha256(table.render().encode()).hexdigest()\n"
    "print(elapsed, peak_kib, digest)\n"
)


def record(eid: str) -> dict:
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, eid],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    out, _ = child.communicate()
    process_s = time.perf_counter() - started
    if child.returncode != 0:
        raise SystemExit(f"{eid} failed with exit code {child.returncode}")
    run_s, peak_kib, digest = out.split()
    return {"experiment": eid, "run_s": float(run_s),
            "process_s": process_s, "peak_rss_mb": int(peak_kib) / 1024,
            "table_sha256": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=os.path.join(HERE, "results", "experiments.json")
    )
    args = parser.parse_args(argv)
    rows = []
    for index in range(1, 17):
        eid = f"E{index}"
        rows.append(record(eid))
        print(json.dumps(rows[-1]), flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"machine": machine_record(ROOT), "experiments": rows},
                  handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
