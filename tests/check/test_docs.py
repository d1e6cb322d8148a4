"""The oracle table in docs/testing.md must name exactly the oracles of
``repro.check.ALL_ORACLES`` — no missing rows, no stale ones."""

import re
from pathlib import Path

import repro
from repro.check import ALL_ORACLES

DOCS = Path(repro.__file__).resolve().parents[2] / "docs" / "testing.md"


def _table_names():
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## Oracle inventory", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(1)
        for match in re.finditer(r"^\| `([^`]+)` \|", section, re.MULTILINE)
    }


def test_oracle_table_matches_the_inventory():
    assert _table_names() == {oracle.name for oracle in ALL_ORACLES}
