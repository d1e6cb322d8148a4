"""The command-line entry points stay in their layers.

The store CLI only maintains a store, so it must not load the
experiments; the experiments CLI renders tables, so it must not load the
fabric (a fabric warm-up is ``python -m repro.fabric sweep`` first).
The observability flags the CLIs share are declared once, in
``repro.obs.harness``, so each prints one help text everywhere.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

from repro.check.__main__ import main as check_main
from repro.experiments.__main__ import main as experiments_main
from repro.fabric.__main__ import main as fabric_main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _loaded_after_import(module):
    """The ``repro`` modules a fresh interpreter holds after importing
    ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys, {module}; print('\\n'.join(sys.modules))",
        ],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return {name for name in out.split() if name.startswith("repro")}


def _within(package, modules):
    return sorted(
        name for name in modules
        if name == package or name.startswith(package + ".")
    )


def test_store_cli_does_not_load_the_experiments():
    loaded = _loaded_after_import("repro.store.__main__")
    assert "repro.store.__main__" in loaded
    assert _within("repro.experiments", loaded) == []


def test_experiments_cli_does_not_load_the_fabric():
    loaded = _loaded_after_import("repro.experiments.__main__")
    assert "repro.experiments.__main__" in loaded
    assert _within("repro.fabric", loaded) == []


def _help(main, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def _flag_help(text, flag):
    """The help text printed for ``flag``, whitespace-normalized."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if re.match(rf"\s+{re.escape(flag)}\b", line):
            block = [line.strip()]
            for following in lines[index + 1:]:
                if not following.startswith(" " * 4) or re.match(
                    r"\s+-", following
                ):
                    break
                block.append(following.strip())
            words = " ".join(block).split()
            return " ".join(words[1:])  # drop the flag itself
    raise AssertionError(f"{flag} not in the help text")


@pytest.mark.parametrize(
    "flag", ["--trace", "--metrics", "--progress", "--telemetry"]
)
def test_shared_flags_print_one_help_text(flag, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    experiments = _flag_help(_help(experiments_main, [], capsys), flag)
    sweep = _flag_help(_help(fabric_main, ["sweep"], capsys), flag)
    serve = _flag_help(_help(fabric_main, ["serve"], capsys), flag)
    assert experiments and experiments == sweep == serve
    if flag in ("--trace", "--metrics"):
        assert _flag_help(_help(check_main, [], capsys), flag) == experiments


def test_quick_sweep_help_names_what_it_warms(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    sweep = _flag_help(_help(fabric_main, ["sweep"], capsys), "--quick")
    assert sweep.startswith(
        "warm exactly the cells 'python -m repro.experiments E --quick' "
        "renders"
    )
