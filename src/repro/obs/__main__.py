"""The observability analysis CLI: ``python -m repro.obs``.

Four subcommands over the JSONL artifacts the obs layers write:

* ``tree FILE`` — render a trace as an indented span tree with wall
  times (one tree per root; a healthy distributed sweep has exactly one
  root).
* ``critical-path FILE`` — the heaviest root-to-leaf span chain, the
  chain that bounded the sweep's wall time.
* ``top FILE`` — hotspots: span-time totals for a trace file, sample
  shares for a profiler file (autodetected by record shape, or forced
  with ``--kind``).
* ``diff A B`` — compare two captures (trace vs trace, or profile vs
  profile): per-key totals side by side with the change ratio — the
  observability analogue of a perfbench before/after comparison.

Examples::

    python -m repro.experiments E1 --trace trace.jsonl --profile prof.jsonl
    python -m repro.obs tree trace.jsonl
    python -m repro.obs critical-path trace.jsonl
    python -m repro.obs top prof.jsonl
    python -m repro.obs diff before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .analysis import (
    aggregate_profile,
    aggregate_spans,
    build_span_forest,
    critical_path,
    diff_aggregates,
    render_critical_path,
    render_diff,
    render_top,
    render_tree,
)
from .trace import read_trace


def _detect_kind(path: str) -> str:
    """``"trace"`` or ``"profile"``, from the first JSONL record's
    shape (trace records have ``name``/``kind``; profiler samples have
    ``spans``/``stack``)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "stack" in record or "spans" in record:
                return "profile"
            return "trace"
    return "trace"


def _load_profile(path: str) -> List[Dict[str, Any]]:
    from .profile import read_profile

    return read_profile(path)


def _aggregate_file(path: str, kind: Optional[str]) -> Tuple[str, Dict]:
    resolved = kind or _detect_kind(path)
    if resolved == "profile":
        return "profile", aggregate_profile(_load_profile(path))
    return "trace", aggregate_spans(read_trace(path))


def _cmd_tree(args: argparse.Namespace) -> int:
    events = read_trace(args.file)
    roots = build_span_forest(events, trace_id=args.trace_id)
    if not roots:
        print("(no spans in trace)")
        return 1
    print(
        render_tree(
            roots, max_depth=args.max_depth, show_events=args.events
        )
    )
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    events = read_trace(args.file)
    roots = build_span_forest(events, trace_id=args.trace_id)
    if not roots:
        print("(no spans in trace)")
        return 1
    print(render_critical_path(critical_path(roots)))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    kind, totals = _aggregate_file(args.file, args.kind)
    if kind == "profile" and args.by == "stack":
        totals = aggregate_profile(_load_profile(args.file), by="stack")
    unit = "s" if kind == "trace" else "share"
    print(render_top(totals, unit=unit, limit=args.limit))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    kind_a, before = _aggregate_file(args.a, args.kind)
    kind_b, after = _aggregate_file(args.b, args.kind)
    if kind_a != kind_b:
        print(
            f"cannot diff a {kind_a} capture against a {kind_b} capture",
            file=sys.stderr,
        )
        return 2
    unit = "s" if kind_a == "trace" else "share"
    print(render_diff(diff_aggregates(before, after), unit=unit))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze repro trace / telemetry / profile captures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="render a trace as a span tree")
    tree.add_argument("file", help="trace JSONL file")
    tree.add_argument("--max-depth", type=int, default=None)
    tree.add_argument(
        "--trace-id", type=int, default=None,
        help="only spans of this trace id",
    )
    tree.add_argument(
        "--events", action="store_true",
        help="also list point events under each span",
    )
    tree.set_defaults(func=_cmd_tree)

    crit = sub.add_parser(
        "critical-path", help="heaviest root-to-leaf span chain"
    )
    crit.add_argument("file", help="trace JSONL file")
    crit.add_argument("--trace-id", type=int, default=None)
    crit.set_defaults(func=_cmd_critical_path)

    top = sub.add_parser("top", help="hotspots by span path or stack")
    top.add_argument("file", help="trace or profile JSONL file")
    top.add_argument(
        "--kind", choices=["trace", "profile"], default=None,
        help="force the capture kind (default: autodetect)",
    )
    top.add_argument(
        "--by", choices=["span", "stack"], default="span",
        help="profile grouping (span path or innermost frame)",
    )
    top.add_argument("--limit", type=int, default=20)
    top.set_defaults(func=_cmd_top)

    diff = sub.add_parser("diff", help="compare two captures")
    diff.add_argument("a", help="baseline JSONL capture")
    diff.add_argument("b", help="comparison JSONL capture")
    diff.add_argument(
        "--kind", choices=["trace", "profile"], default=None,
    )
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # piped to head/less that closed early
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
