"""Every name the benchmark harness takes from ``repro`` still resolves.

``perfbench/`` is outside tier-1: ``layers.Tracing.install`` resolves
every ``SPANS`` target, so a deleted one breaks every traced run, and a
``from repro... import name`` in a perfbench script breaks that script.
These tests read the harness's sources (and load ``layers.py`` for its
``SPANS`` table) so that a deletion fails here instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))
_MODULE_PATH = re.compile(r"repro(\.[A-Za-z0-9_]+)+")


def _spans():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers", PERFBENCH / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SPANS


def _resolve(module_name, path):
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part)
    return target


def _references(script):
    """``(module, attribute path)`` pairs ``script`` takes from repro:
    each ``from repro... import name``, each ``name.attr`` on a module
    imported that way, and each string naming a repro module (``""``
    path: the module itself)."""
    tree = ast.parse(script.read_text(encoding="utf-8"))
    found = set()
    imported_modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro"
        ):
            for alias in node.names:
                found.add((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                if _is_module(full):
                    imported_modules[alias.asname or alias.name] = full
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _MODULE_PATH.fullmatch(node.value):
                found.add((node.value, ""))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported_modules
        ):
            found.add((imported_modules[node.value.id], node.attr))
    return sorted(found)


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def test_every_span_target_resolves():
    spans = _spans()
    assert spans
    for _prefix, module_name, path in spans:
        assert callable(_resolve(module_name, path)), (module_name, path)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_repro_name_in_a_script_resolves(script):
    for module_name, path in _references(script):
        if path:
            _resolve(module_name, path)
        else:
            importlib.import_module(module_name)


def test_the_scan_sees_the_kernel_shim():
    """The scan follows names used off an imported module, such as
    ``kernels.set_kernel`` in ``pin.py``."""
    refs = _references(PERFBENCH / "pin.py")
    assert ("repro.perf.kernels", "set_kernel") in refs
    assert ("repro.perf.kernels", "get_kernel") in refs
    assert ("repro.core.runner", "run_protocol") in refs
