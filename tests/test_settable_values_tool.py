"""``tools/settable_values.py`` on this repository: it counts each kind
of settable value, its total is their sum, and it sees a flag, the
environment variable ``src/`` reads and the keyword-only defaults."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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
    assert [line for line in lines if "run_protocol(tracer=)" in line]
