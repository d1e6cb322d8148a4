"""Lazy package exports (PEP 562).

Each package ``__init__`` under ``repro`` lists its public names in one
table, submodule -> the names it defines, and binds::

    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

A name's submodule is imported the first time the name is looked up on
the package, so ``import repro.experiments`` costs the package alone and
an entry point loads only the layers it runs.  ``from package import
name``, ``from package import *`` and ``__all__`` work as before.

The value is looked up in the submodule on every access and never
stored on the package, so a name rebound in its submodule (a
monkeypatch, a tracing wrapper) reads the same through the package.

A public name must not equal the name of a submodule: importing the
submodule sets the package attribute to the module object, which hides
``__getattr__``.  Where a name does (``repro.information.entropy``), the
package binds it eagerly after importing the submodule.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``,
    exporting each name of ``table[submodule]`` from
    ``package.submodule``."""
    owner = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f"{package}.{module}"), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
