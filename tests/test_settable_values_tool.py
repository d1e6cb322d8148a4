"""``tools/settable_values.py`` on this repository: it counts each kind
of settable value, its total is their sum, and it sees a flag, the
environment variable ``src/`` reads and the keyword-only defaults."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
TOOL = ROOT / "tools" / "settable_values.py"
KINDS = ("cli arguments", "environment variables", "keyword-only defaults")


def test_counts_each_kind_and_lists_what_it_counts():
    ran = subprocess.run(
        [sys.executable, str(TOOL), "--list"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert ran.returncode == 0, ran.stderr
    lines = ran.stdout.splitlines()
    totals = {
        name: int(value)
        for name, value in (
            line.split(": ") for line in lines if not line.startswith(" ")
        )
    }
    assert tuple(totals) == KINDS + ("total",)
    assert totals["total"] == sum(totals[kind] for kind in KINDS)
    assert len(lines) == len(totals) + sum(totals[kind] for kind in KINDS)
    assert "  python -m repro.experiments --store" in lines
    assert "  python -m repro.store gc --tmp-max-age" in lines
    assert "  REPRO_FABRIC_TEST_KILL_AFTER" in lines
    # The message bound is the protocol's, not an option of any engine.
    assert not [line for line in lines if "max_messages" in line]
    # The tracer enters through obs.trace alone, never as an argument.
    assert not [line for line in lines if "(tracer=)" in line]
    assert [line for line in lines if "run_protocol(rng=)" in line]


def test_no_public_function_takes_a_tracer():
    """The process-wide tracer is the one way in: no public ``def`` under
    ``src/repro`` has a ``tracer`` parameter, except the two that install
    it."""
    takers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            names = [
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            ]
            if "tracer" in names:
                where = path.relative_to(PACKAGE).as_posix()
                takers.append(f"{where}:{node.name}")
    assert takers == ["obs/trace.py:set_tracer", "obs/trace.py:using_tracer"]
