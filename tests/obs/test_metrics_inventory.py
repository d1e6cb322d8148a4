"""The metric inventory in ``repro.obs.metrics``'s docstring must cover
every counter/gauge/histogram actually emitted anywhere in ``src/``.

The docstring table is the user-facing contract (mirrored in
docs/observability.md); it went stale once — this test scans the source
tree for emission sites so it cannot go stale silently again.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro.obs.metrics as metrics_mod

SRC = Path(metrics_mod.__file__).resolve().parents[2]

#: Matches REGISTRY.counter("name") / reg.gauge("name") / .histogram(...)
_EMIT = re.compile(
    r"\.(counter|gauge|histogram)\(\s*[\"']([a-z0-9_]+)[\"']"
)

#: Matches a ``double-backquoted`` metric name at the start of an
#: inventory table row in the module docstring.
_DOCUMENTED = re.compile(r"^``([a-z0-9_]+)``", re.MULTILINE)


def _emitted_metrics():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for kind, name in _EMIT.findall(text):
            # Skip the docstring example and registry internals in
            # metrics.py itself; every real emission lives elsewhere.
            if path.name == "metrics.py":
                continue
            found.setdefault(name, kind)
    return found


def test_scan_finds_known_emissions():
    emitted = _emitted_metrics()
    # Sanity-check the scanner against a few metrics that exist since
    # the first instrumented subsystems.
    for name in (
        "bits_written",
        "net_frames_sent",
        "store_hits",
        "topology_view_rebuilds",
    ):
        assert name in emitted


def test_every_emitted_metric_is_documented():
    documented = set(_DOCUMENTED.findall(metrics_mod.__doc__))
    emitted = _emitted_metrics()
    missing = sorted(set(emitted) - documented)
    assert not missing, (
        "metrics emitted in src/ but absent from the inventory table in "
        f"repro/obs/metrics.py docstring: {missing}"
    )


def test_every_emitted_metric_is_in_docs_page():
    docs = SRC.parent / "docs" / "observability.md"
    text = docs.read_text(encoding="utf-8")
    emitted = _emitted_metrics()
    # A mention may carry a label suffix, e.g. `net_frames_sent{kind}`.
    missing = sorted(
        name
        for name in emitted
        if not re.search(rf"`{name}[`{{]", text)
    )
    assert not missing, (
        f"metrics emitted in src/ but missing from docs/observability.md: "
        f"{missing}"
    )
