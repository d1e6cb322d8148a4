"""Count the values a user of ``repro`` can set.

Three kinds are counted, each the way it is declared:

* every argparse argument (positionals too, ``--help`` not) of each
  ``python -m repro.<package>`` command, per subcommand, so a flag two
  subcommands share counts twice;
* every ``REPRO_*`` environment variable ``src/repro`` reads by name
  (``os.environ.get``/``os.getenv``/``os.environ[...]`` with a string
  literal or a module-level string constant; a variable it only passes
  on, such as ``PYTHONPATH``, sets nothing of its own);
* every keyword-only parameter with a default of a function in
  ``src/repro``.

Usage::

    python tools/settable_values.py            # totals per kind
    python tools/settable_values.py --list     # also every item

Run from the repository root; ``src/`` is put on the path.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


class _Captured(Exception):
    """Raised in place of parsing, carrying the parser that was built."""

    def __init__(self, parser: argparse.ArgumentParser) -> None:
        super().__init__()
        self.parser = parser


def _cli_modules() -> List[str]:
    return sorted(
        "repro." + path.parent.name for path in PACKAGE.glob("*/__main__.py")
    )


def _capture(module: str) -> argparse.ArgumentParser:
    """The parser ``module.main`` builds, taken at its ``parse_args``."""

    def parse_args(self, *args, **kwargs):
        raise _Captured(self)

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = parse_args
    try:
        importlib.import_module(module + ".__main__").main([])
    except _Captured as captured:
        return captured.parser
    finally:
        argparse.ArgumentParser.parse_args = original
    raise RuntimeError(f"{module}.__main__.main never parsed its arguments")


def _arguments(parser: argparse.ArgumentParser, prefix: str) -> List[str]:
    names: List[str] = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                names += _arguments(sub, f"{prefix} {command}")
            continue
        label = action.option_strings[-1] if action.option_strings else action.dest
        names.append(f"{prefix} {label}")
    return names


def cli_arguments() -> List[str]:
    names: List[str] = []
    for module in _cli_modules():
        names += _arguments(_capture(module), f"python -m {module}")
    return names


def _sources() -> List[Tuple[str, ast.Module]]:
    return [
        (str(path.relative_to(ROOT)), ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))
    ]


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    constants: Dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
    return constants


def _is_environ(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ"


def environment_variables() -> List[str]:
    names = set()
    for _path, tree in _sources():
        constants = _string_constants(tree)
        for node in ast.walk(tree):
            key = None
            if isinstance(node, ast.Call) and node.args:
                func = node.func
                if isinstance(func, ast.Attribute) and (
                    (func.attr == "get" and _is_environ(func.value))
                    or func.attr == "getenv"
                ):
                    key = node.args[0]
            elif isinstance(node, ast.Subscript) and _is_environ(node.value):
                key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
            elif isinstance(key, ast.Name) and key.id in constants:
                names.add(constants[key.id])
    return sorted(name for name in names if name.startswith("REPRO_"))


def keyword_defaults() -> List[str]:
    names: List[str] = []
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg, default in zip(
                    node.args.kwonlyargs, node.args.kw_defaults
                ):
                    if default is not None:
                        names.append(f"{path}:{node.lineno} {node.name}({arg.arg}=)")
    return names


def count() -> Dict[str, List[str]]:
    """Every settable value, by kind."""
    return {
        "cli arguments": cli_arguments(),
        "environment variables": environment_variables(),
        "keyword-only defaults": keyword_defaults(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print every counted value, not only totals")
    args = parser.parse_args(argv)
    kinds = count()
    for kind, names in kinds.items():
        print(f"{kind}: {len(names)}")
        if args.list:
            for name in names:
                print(f"  {name}")
    print(f"total: {sum(len(names) for names in kinds.values())}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
