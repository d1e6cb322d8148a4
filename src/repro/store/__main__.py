"""Result-store maintenance CLI.

Usage::

    python -m repro.store stats  --dir .store
    python -m repro.store verify --dir .store [--delete]
    python -m repro.store gc     --dir .store --max-bytes 100000000

``stats`` prints entry counts and sizes by experiment; ``verify``
re-reads and checksums every entry (exit 1 if any is corrupt;
``--delete`` reclaims them); ``gc`` sweeps orphaned temp files older
than ``--tmp-max-age`` and evicts least-recently-used entries until the
store fits the bound.  Filling a store is the experiment CLI's job
(``python -m repro.experiments E --store DIR``) or, over a worker pool,
the fabric's (``python -m repro.fabric sweep E --store DIR``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .store import DEFAULT_TMP_MAX_AGE_S, ResultStore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Maintain the content-addressed result store "
                    "(see docs/store.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dir(p):
        p.add_argument(
            "--dir", required=True, metavar="DIR",
            help="store root directory",
        )

    stats = sub.add_parser("stats", help="entry counts and sizes")
    add_dir(stats)

    verify = sub.add_parser("verify", help="checksum every entry")
    add_dir(verify)
    verify.add_argument(
        "--delete", action="store_true",
        help="remove corrupt entries instead of just reporting them",
    )

    gc = sub.add_parser("gc", help="evict LRU entries down to a bound")
    add_dir(gc)
    gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="target store size in bytes",
    )
    gc.add_argument(
        "--tmp-max-age", type=float, default=DEFAULT_TMP_MAX_AGE_S,
        metavar="S",
        help="also reclaim orphaned .tmp-* files older than S seconds "
             f"(default {DEFAULT_TMP_MAX_AGE_S:.0f}; 0 sweeps them all)",
    )

    args = parser.parse_args(argv)
    store = ResultStore(args.dir)

    if args.command == "stats":
        print(store.stats().render(), end="")
        return 0

    if args.command == "verify":
        report = store.verify_all(delete=args.delete)
        print(f"verified {report.checked} entries")
        for path in report.corrupt:
            marker = "removed" if path in report.removed else "CORRUPT"
            print(f"  {marker}: {path}")
        for path in report.orphaned:
            marker = "removed" if path in report.removed else "orphaned tmp"
            print(f"  {marker}: {path}")
        return 0 if report.ok else 1

    # gc: one sweep, at the user's age; it counts the orphans it took.
    orphans = [orphan.path for orphan in store.tmp_files()]
    evicted = store.gc(args.max_bytes, tmp_max_age_s=args.tmp_max_age)
    swept = sum(not os.path.exists(path) for path in orphans)
    if swept:
        print(f"swept {swept} orphaned tmp files")
    print(
        f"evicted {len(evicted)} entries; store now "
        f"{store.total_bytes()} bytes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
