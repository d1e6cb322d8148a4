"""The command-line entry points stay in their layers.

The store CLI only maintains a store, so it must not load the
experiments; the experiments CLI renders tables, so it must not load the
fabric (a fabric warm-up is ``python -m repro.fabric sweep`` first).
Every package exports its names lazily (``repro._lazy``), so importing
one loads none of its submodules, and an exact analysis loads no
network, fabric, topology or fuzzing layer.  These tests assert on the
module sets of fresh interpreters, never on timings.
The observability flags the CLIs share are declared once, in
``repro.obs.harness``, so each prints one help text everywhere.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro
from repro.check.__main__ import main as check_main
from repro.experiments.__main__ import main as experiments_main
from repro.fabric.__main__ import main as fabric_main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _loaded_after(code):
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys\n{code}\nprint('\\n'.join(sys.modules))",
        ],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return set(out.split())


def _loaded_after_import(module):
    """The modules a fresh interpreter holds after importing
    ``module``."""
    return _loaded_after(f"import {module}")


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


#: The modules behind exact-info: Theorem 1's CIC (E2), the Section 6
#: gap (E5), Lemma 2 (E10) and the zero-error optimum (E14).
EXACT_INFO = (
    "e2_and_information",
    "e5_gap",
    "e10_divergence_decomposition",
    "e14_optimal_information",
)

#: The packages under ``repro`` that export names from submodules.
PACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _present(names, loaded):
    return [name for name in names if name in loaded]


def _experiment_modules(loaded):
    return sorted(
        name for name in loaded
        if re.fullmatch(r"repro\.experiments\.e\d+_\w+", name)
    )


def test_experiments_package_loads_no_experiment():
    loaded = _loaded_after_import("repro.experiments")
    assert _experiment_modules(loaded) == []
    assert _present(("numpy", "asyncio", "multiprocessing"), loaded) == []


def test_experiment_lookup_loads_that_experiment_only():
    loaded = _loaded_after(
        "from repro.experiments import ALL_EXPERIMENTS\n"
        "ALL_EXPERIMENTS['E8']"
    )
    assert _experiment_modules(loaded) == ["repro.experiments.e8_figure1"]


@pytest.mark.parametrize("module", EXACT_INFO)
def test_exact_analysis_loads_no_network_stack(module):
    loaded = _loaded_after_import(f"repro.experiments.{module}")
    for package in ("repro.net", "repro.fabric", "repro.topology",
                    "repro.check"):
        assert _within(package, loaded) == []
    assert _present(("asyncio", "multiprocessing"), loaded) == []


def test_in_memory_e1_loads_no_asyncio():
    loaded = _loaded_after_import("repro.experiments.e1_disjointness_scaling")
    assert _present(("asyncio",), loaded) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_export_table_is_all(package):
    module = importlib.import_module(package)
    exported = [name for names in module._EXPORTS.values() for name in names]
    assert len(exported) == len(set(exported))
    # ALL_EXPERIMENTS is the one name a package __init__ defines itself.
    own = {"ALL_EXPERIMENTS"} if package == "repro.experiments" else set()
    assert set(exported) | own == set(module.__all__)
    listed = dir(module)
    for submodule, names in module._EXPORTS.items():
        source = importlib.import_module(f"{package}.{submodule}")
        for name in names:
            assert getattr(module, name) is getattr(source, name)
            assert name in listed
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_information_entropy_stays_the_function():
    """Importing a submodule sets the package attribute of its name, so
    the one public name equal to a submodule's name is bound eagerly
    (``test_export_table_is_all`` imports every submodule first, so it
    catches any other such name)."""
    import repro.information.entropy  # noqa: F401
    from repro import information

    coin = information.DiscreteDistribution({1: 0.5, 0: 0.5})
    assert information.entropy(coin) == 1.0


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
