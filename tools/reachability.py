"""Record which ``def``s under a source tree a command calls, in every
Python process it starts, and list the ones nothing called.

Usage (from the repository root)::

    python tools/reachability.py run OUT -- python -m repro.experiments E7
    python tools/reachability.py run OUT -- python examples/quickstart.py
    python tools/reachability.py report OUT

``run`` executes the command with a generated ``sitecustomize.py``
first on ``PYTHONPATH``, so every Python process the command starts
(subprocesses, spawned, forked and forkserver pool workers) installs a
``sys.setprofile`` / ``threading.setprofile`` hook that notes each code
object it enters.  A process writes the ones under the source root to
``OUT/calls-<pid>-<n>.txt``:

* at interpreter exit (``atexit``);
* in ``os._exit``, which multiprocessing children end with and which
  skips ``atexit``;
* on SIGTERM when the process has no handler of its own (a
  ``Process.terminate()``), after which it dies of SIGTERM as before.

Runs into one ``OUT`` accumulate, so a surface list is one ``run`` per
command and one ``report``.  ``report`` parses every ``def`` under the
root with ``ast`` and matches it to the recorded ``(file, first
line)`` (a decorated def's code starts at its first decorator); it
prints the counts and every def never called.  A process killed by
SIGKILL records nothing.  The hook slows the command several times
over, so timings taken under it mean nothing.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

DEFAULT_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

_HOOK = r'''
import atexit
import itertools
import os
import signal
import sys
import threading

_ROOT = {root!r}
_OUT = {out!r}
_codes = {{}}
_serial = itertools.count()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code


def _dump():
    prefix = _ROOT + os.sep
    seen = set()
    for code in list(_codes.values()):
        path = os.path.realpath(code.co_filename)
        if path.startswith(prefix):
            seen.add("%s:%d" % (path[len(prefix):], code.co_firstlineno))
    if seen:
        name = "calls-%d-%d.txt" % (os.getpid(), next(_serial))
        with open(os.path.join(_OUT, name), "w") as handle:
            handle.write("\n".join(sorted(seen)) + "\n")


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


def _on_sigterm(signum, frame):
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


os._exit = _exit
os.register_at_fork(after_in_child=_codes.clear)
atexit.register(_dump)
if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
    signal.signal(signal.SIGTERM, _on_sigterm)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def run(out: Path, root: Path, command: List[str]) -> int:
    """Run ``command`` with the recorder in every Python process."""
    out = out.resolve()
    hook_dir = out / ".hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(root=str(root.resolve()), out=str(out)),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.call(command, env=env)


def defs(root: Path) -> Dict[Tuple[str, int], str]:
    """Every ``def`` under ``root``: ``(relative path, first line)`` to
    its qualified name."""
    found: Dict[Tuple[str, int], str] = {}
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack: List[Tuple[ast.AST, str]] = [(tree, "")]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = scope
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    found[(rel, first)] = name
                stack.append((child, name))
    return found


def recorded(out: Path) -> Set[Tuple[str, int]]:
    """Every ``(relative path, first line)`` some process entered."""
    seen: Set[Tuple[str, int]] = set()
    for dump in out.glob("calls-*.txt"):
        for line in dump.read_text(encoding="utf-8").split():
            rel, _, first = line.rpartition(":")
            seen.add((rel, int(first)))
    return seen


def report(out: Path, root: Path) -> Tuple[int, List[str]]:
    """``(number of defs called, "path:line name" of each def not)``."""
    every = defs(root)
    called = recorded(out) & set(every)
    unreached = [
        f"{rel}:{first} {every[(rel, first)]}"
        for rel, first in sorted(set(every) - called)
    ]
    return len(called), unreached


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="source tree whose defs count (default: src/repro)")
    sub = parser.add_subparsers(dest="action", required=True)
    run_parser = sub.add_parser("run", help="run a command under the recorder")
    run_parser.add_argument("out", type=Path)
    run_parser.add_argument("command", nargs=argparse.REMAINDER)
    report_parser = sub.add_parser("report", help="count and list defs")
    report_parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run needs a command after --")
        return run(args.out, args.root, command)
    called, unreached = report(args.out, args.root)
    total = called + len(unreached)
    print(f"{called} of {total} defs called; {len(unreached)} never called")
    for line in unreached:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
