"""Mutation testing for ``src/``: plant one small defect at a time and
record which checks reject it.

Usage (from the repository root)::

    python tools/mutate.py record OUT
    python tools/mutate.py run OUT repro/core/model.py repro/perf/kernels.py
    python tools/mutate.py report OUT
    python tools/mutate.py verify OUT

A *site* is one place in a module where a mutant differs from the
source: an operator swap (``+``/``-``, ``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``*``/``//``, also in augmented assignments) or an
integer constant plus one.  The edit is made on the source text, so
every line keeps its number.

Every recording and every mutant runs in a temporary copy of the
whole repository (tests included, never the working tree), from inside
that copy: a test that starts a child process with ``src/`` worked out
from its own ``__file__`` hands the child the copy's ``src/``.

``record`` runs two recordings on the unmutated copy, both with the
recorder of ``tools/reachability.py`` installed as the copy's
``src/sitecustomize.py``, so every Python process with ``src/`` on its
path records the defs it enters:

* the tier-1 tests outside ``tests/check`` once, with a pytest plugin
  that notes, per test id, each ``def`` under ``src/`` the test entered,
  in pytest's own process and in every process the test starts (each
  inherits the test id as its dump's tag);
* the check command (``python -m repro.check --seed 0 --cases 25
  --no-shrink``).

``run`` mutates each site of the named modules (paths relative to
``src/``) and runs at most two lanes against it:

* the recorded tests that entered the def holding the site, fastest
  first, with ``-x``.  A site outside every def (module or class level)
  runs every recorded test;
* if the tests did not kill the mutant, the check command, recording
  which oracles report a failure (each ``[name]`` line it prints).  So
  every *unique* kill of an oracle, a mutant only the check rejects,
  is found.

A lane is skipped when its recording never entered the site's def (the
mutated code cannot run there).  A lane that outlives its timeout is a
*hang*; the tests lane's timeout is one minute plus three times the
recorded seconds of its tests.  Results append to ``OUT/results.jsonl``,
one row per site and run; a second ``run`` runs only the lanes a site
still owes.  ``report`` prints per module the sites, kills, survivors,
hangs, unreached sites and sites still owing a lane, per oracle its
kills and unique kills, then every survivor, hang and unique kill.
``verify`` re-runs 20 sampled survivors against every test
outside ``tests/check``: a survivor that dies there shows a test the
per-test record missed.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import reachability

REPO = Path(__file__).resolve().parents[1]
CHECK = "python -m repro.check --seed 0 --cases 25 --no-shrink"
CHECK_TIMEOUT = 60.0
#: Tier-1 minus the fuzz harness's own tests.
ALL_TESTS = ["tests", "--ignore=tests/check"]
SAMPLE = 20
VERIFY_TIMEOUT = 900.0
WORKERS = 2
SWAPS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "//"),
    ast.FloorDiv: ("//", "*"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
}
MODULE_LEVEL = 0
_ORACLE_LINE = re.compile(r"^\s+\[([\w.-]+)\] ", re.MULTILINE)

#: The pytest plugin of the record run: per test, its seconds and the
#: defs pytest's own process entered (the recorder is ``sitecustomize``).
_PLUGIN = r'''
import json
import os
import sys
import threading
import time

import pytest
import sitecustomize

_record = {{}}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    sitecustomize.clear()
    os.environ[{tag!r}] = item.nodeid
    started = time.perf_counter()
    yield
    seconds = time.perf_counter() - started
    del os.environ[{tag!r}]
    _record[item.nodeid] = (seconds, sorted(sitecustomize.called()))


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    threading.setprofile(None)
    sitecustomize.clear()
    with open({out!r}, "w") as handle:
        json.dump(_record, handle)
'''


@dataclass(frozen=True)
class Site:
    """One mutant: ``module`` (relative to ``src/``), the def holding it
    (first line, decorators included; 0 outside every def) and the
    source edit."""

    module: str
    line: int
    col: int
    end_col: int
    before: str
    after: str
    def_line: int
    def_name: str

    @property
    def ident(self) -> str:
        return (
            f"{self.module}:{self.line}:{self.col} {self.before} -> {self.after}"
        )

    @property
    def def_key(self) -> str:
        return f"{self.module}:{self.def_line}"


def sites(src: Path, module: str) -> List[Site]:
    """Every mutation site of ``src/module``, in source order."""
    text = (src / module).read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines(keepends=True)
    ops = [
        token
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.OP
    ]

    def chars(line: int, col: int) -> Tuple[int, int]:
        # ast columns count UTF-8 bytes, tokenize columns characters.
        return line, len(lines[line - 1].encode("utf-8")[:col].decode("utf-8"))

    def op_token(symbol: str, start: Tuple[int, int], end: Tuple[int, int]):
        for token in ops:
            if token.string == symbol and start <= token.start < end:
                return token
        return None

    found: List[Site] = []

    def add(start, end, before, after, owner):
        found.append(
            Site(module, start[0], start[1], end[1], before, after,
                 owner[0], owner[1])
        )

    def operator(op, left, right, owner, augmented=False):
        swap = SWAPS.get(type(op))
        if swap is None:
            return
        before, after = swap
        if augmented:
            before, after = before + "=", after + "="
        token = op_token(
            before,
            chars(left.end_lineno, left.end_col_offset),
            chars(right.lineno, right.col_offset),
        )
        if token is not None:
            add(token.start, token.end, before, after, owner)

    def visit(node: ast.AST, owner: Tuple[int, str], scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Defaults and decorators run where the def is made.
            outer = [*node.args.defaults, *node.args.kw_defaults]
            if not isinstance(node, ast.Lambda):
                outer += node.decorator_list
            for child in outer:
                if child is not None:
                    visit(child, owner, scope)
            if isinstance(node, ast.Lambda):
                visit(node.body, owner, scope)
                return
            name = f"{scope}.{node.name}" if scope else node.name
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            for child in node.body:
                visit(child, (first, name), name)
            return
        if isinstance(node, ast.ClassDef):
            for child in node.decorator_list + node.bases:
                visit(child, owner, scope)
            name = f"{scope}.{node.name}" if scope else node.name
            for child in node.body:
                visit(child, owner, name)
            return
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            for child in ast.iter_child_nodes(node):
                if child is not getattr(node, "annotation", None):
                    visit(child, owner, scope)
            return
        if isinstance(node, ast.BinOp):
            operator(node.op, node.left, node.right, owner)
        elif isinstance(node, ast.AugAssign):
            operator(node.op, node.target, node.value, owner, augmented=True)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                operator(op, left, right, owner)
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.end_lineno is not None
        ):
            start = chars(node.lineno, node.col_offset)
            end = chars(node.end_lineno, node.end_col_offset)
            before = lines[start[0] - 1][start[1]:end[1]] if start[0] == end[0] else ""
            if before:
                add(start, end, before, str(node.value + 1), owner)
        elif isinstance(node, ast.JoinedStr):
            return
        for child in ast.iter_child_nodes(node):
            visit(child, owner, scope)

    visit(tree, (MODULE_LEVEL, "<module>"), "")
    found.sort(key=lambda site: (site.line, site.col, site.after))
    return found


def apply(text: str, site: Site) -> str:
    """``text`` with ``site``'s edit made (columns in characters)."""
    lines = text.splitlines(keepends=True)
    line = lines[site.line - 1]
    if line[site.col:site.end_col] != site.before:
        raise ValueError(f"{site.ident}: source does not match")
    lines[site.line - 1] = line[:site.col] + site.after + line[site.end_col:]
    return "".join(lines)


def _run(command: Sequence[str], cwd: Path, env: Dict[str, str],
         timeout: float) -> Tuple[Optional[int], str, float]:
    """``(exit status or None on timeout, output, seconds)``; a timed-out
    command's whole process group is killed."""
    started = time.monotonic()
    process = subprocess.Popen(
        list(command), cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=timeout)
        status: Optional[int] = process.returncode
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        output, _ = process.communicate()
        status = None
    return status, output, time.monotonic() - started


def _env(src: Path, extra: Iterable[str] = ()) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*extra, str(src)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _pytest(repo: Path, args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--rootdir", str(repo), *args]


class Layout:
    """Where a repository keeps its sources, tests and records."""

    def __init__(self, repo: Path, out: Path, check: str) -> None:
        self.repo = repo.resolve()
        self.src = self.repo / "src"
        self.out = out.resolve()
        self.check = shlex.split(check)

    def copy(self, work: Path) -> Path:
        """The repository copied to ``work/repo``, without ``.git``,
        caches or ``OUT``."""
        out = str(self.out)

        def ignore(folder: str, names: List[str]) -> Set[str]:
            return {
                name for name in names
                if name in (".git", "__pycache__", ".pytest_cache")
                or name.endswith(".egg-info")
                or os.path.join(folder, name) == out
            }

        copy = work / "repo"
        shutil.copytree(self.repo, copy, symlinks=True, ignore=ignore)
        return copy

    def record(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="record-") as work:
            copy = self.copy(Path(work))
            src = copy / "src"
            dumps = Path(work) / "dumps"
            plugin = Path(work) / "plugin"
            plugin.mkdir()
            in_process = plugin / "tests.json"
            (plugin / "mutate_record.py").write_text(
                _PLUGIN.format(tag=reachability.TAG, out=str(in_process)),
                encoding="utf-8",
            )
            reachability.install(src, src, dumps / "tests")
            status, output, seconds = _run(
                _pytest(copy, ["-p", "mutate_record", *ALL_TESTS]),
                copy, _env(src, [str(plugin)]), timeout=24 * 3600,
            )
            print(f"tests recorded in {seconds:.0f}s (exit {status})")
            if status != 0:
                print(output[-3000:])
            record = json.loads(in_process.read_text())
            defs = {test: set(keys) for test, (_, keys) in record.items()}
            for test, keys in reachability.dumps(dumps / "tests"):
                if test in defs:
                    defs[test].update(keys)
            (self.out / "tests.json").write_text(json.dumps({
                "defs": {test: sorted(keys) for test, keys in defs.items()},
                "seconds": {test: s for test, (s, _) in record.items()},
            }))
            if self.check:
                reachability.install(src, src, dumps / "check")
                _run(self.check, copy, _env(src), timeout=3600)
                keys = {
                    key for _, found in reachability.dumps(dumps / "check")
                    for key in found
                }
                (self.out / "check.json").write_text(json.dumps(sorted(keys)))

    def record_of_tests(self) -> Tuple[Dict[str, List[str]], Dict[str, float]]:
        """Per def key the tests that entered it, fastest first; and the
        recorded seconds of each test (under the hook)."""
        record = json.loads((self.out / "tests.json").read_text())
        seconds = record["seconds"]
        by_def: Dict[str, List[str]] = defaultdict(list)
        for test, keys in record["defs"].items():
            for key in keys:
                by_def[key].append(test)
        for tests in by_def.values():
            tests.sort(key=lambda test: (seconds.get(test, 0.0), test))
        return by_def, seconds

    def check_reach(self) -> Set[str]:
        path = self.out / "check.json"
        return set(json.loads(path.read_text())) if path.exists() else set()

    def done(self) -> Dict[str, dict]:
        """Every site run so far, its lanes merged over all runs."""
        path = self.out / "results.jsonl"
        merged: Dict[str, dict] = {}
        if path.exists():
            for line in path.read_text().splitlines():
                if line:
                    row = json.loads(line)
                    merged.setdefault(row["site"], {}).update(row)
        return merged


def _verdict(status: Optional[int]) -> str:
    if status is None:
        return "hang"
    return "survived" if status == 0 else "killed"


def mutate(layout: Layout, site: Site, tests: List[str], check: bool,
           test_timeout: float) -> Dict[str, object]:
    """Run ``site``'s mutant on its lanes; one results row."""
    row: Dict[str, object] = {"site": site.ident, **asdict(site)}
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        copy = layout.copy(Path(work))
        target = copy / "src" / site.module
        target.write_text(apply(target.read_text(encoding="utf-8"), site),
                          encoding="utf-8")
        env = _env(copy / "src")
        if tests:
            status, output, seconds = _run(
                _pytest(copy, ["-x", *tests]), copy, env, test_timeout,
            )
            verdict = _verdict(status)
            row["tests"] = {"verdict": verdict, "selected": len(tests),
                            "seconds": round(seconds, 1)}
            check = check and verdict != "killed"
        if check:
            status, output, seconds = _run(layout.check, copy, env,
                                           CHECK_TIMEOUT)
            row["check"] = {"verdict": _verdict(status),
                            "seconds": round(seconds, 1)}
            if status:
                row["check"]["oracles"] = sorted(set(_ORACLE_LINE.findall(output)))
    return row


def outcome(row: dict) -> str:
    """One verdict per site: killed beats hang beats survived."""
    verdicts = [row[lane]["verdict"] for lane in ("check", "tests") if lane in row]
    for verdict in ("killed", "hang", "survived"):
        if verdict in verdicts:
            return verdict
    return "unreached"


Job = Tuple[Site, List[str], bool, float]


def plan(layout: Layout, modules: Sequence[str],
         test_timeout: float) -> Tuple[List[Job], Dict[str, dict]]:
    """The lanes each site of ``modules`` still owes (``(site, tests,
    check?, tests timeout)``, module-level sites last) and the rows run
    so far."""
    by_def, seconds = layout.record_of_tests()
    everything = sorted(seconds, key=lambda test: (seconds[test], test))
    reach = layout.check_reach()
    done = layout.done()
    jobs: List[Job] = []
    for module in modules:
        for site in sites(layout.src, module):
            row = done.get(site.ident, {})
            if site.def_line == MODULE_LEVEL:
                tests, check = everything, True
                budget = sum(seconds.values())
            else:
                tests = by_def.get(site.def_key, [])
                check = site.def_key in reach
                budget = sum(seconds.get(test, 0.0) for test in tests)
            tests = tests if "tests" not in row else []
            check = (check and "check" not in row and bool(layout.check)
                     and row.get("tests", {}).get("verdict") != "killed")
            if tests or check or not row:
                timeout = min(test_timeout, 60.0 + 3.0 * budget)
                jobs.append((site, tests, check, timeout))
    jobs.sort(key=lambda job: job[0].def_line == MODULE_LEVEL)
    return jobs, done


def run(layout: Layout, modules: Sequence[str], test_timeout: float) -> int:
    jobs, _ = plan(layout, modules, test_timeout)
    print(f"{len(jobs)} sites to run", flush=True)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool, \
            open(layout.out / "results.jsonl", "a", encoding="utf-8") as handle:
        futures = [
            pool.submit(mutate, layout, site, tests, check, timeout)
            for site, tests, check, timeout in jobs
        ]
        for count, future in enumerate(as_completed(futures), 1):
            row = future.result()
            handle.write(json.dumps(row) + "\n")
            handle.flush()
            print(f"[{count}/{len(jobs)}] {row['site']} {outcome(row)}",
                  flush=True)
    return 0


def summary(rows: Iterable[dict], due: Set[str]
            ) -> Tuple[Dict[str, Counter], Dict[str, Counter]]:
    """Per module: outcome counts (a site that still owes a lane and is
    not yet killed is ``pending``).  Per oracle: ``kills``, ``unique``
    (the tests lane did not kill that mutant) and ``pending`` (its tests
    lane is still owed)."""
    modules: Dict[str, Counter] = defaultdict(Counter)
    oracles: Dict[str, Counter] = defaultdict(Counter)
    for row in rows:
        verdict = outcome(row)
        if row["site"] in due and verdict != "killed":
            verdict = "pending"
        modules[row["module"]]["sites"] += 1
        modules[row["module"]][verdict] += 1
        check = row.get("check", {})
        if check.get("verdict") != "killed":
            continue
        tests = row.get("tests", {}).get("verdict")
        for name in check.get("oracles") or ["<no oracle line>"]:
            oracles[name]["kills"] += 1
            if row["site"] in due:
                oracles[name]["pending"] += 1
            elif tests != "killed":
                oracles[name]["unique"] += 1
    return modules, oracles


def report(layout: Layout) -> int:
    done = layout.done()
    modules = sorted({row["module"] for row in done.values()})
    jobs, _ = plan(layout, modules, float("inf"))
    due = {site.ident for site, tests, check, _ in jobs if tests or check}
    by_module, oracles = summary(done.values(), due)
    columns = ("sites", "killed", "survived", "hang", "unreached", "pending")
    print("module".ljust(40) + "".join(c.rjust(10) for c in columns))
    for module in sorted(by_module):
        print(module.ljust(40)
              + "".join(str(by_module[module][c]).rjust(10) for c in columns))
    print()
    print("oracle".ljust(28) + "".join(
        c.rjust(10) for c in ("kills", "unique", "pending")))
    for name in sorted(oracles):
        print(name.ljust(28) + "".join(
            str(oracles[name][c]).rjust(10) for c in ("kills", "unique", "pending")))
    print()
    for ident in sorted(done):
        row = done[ident]
        if ident in due:
            continue
        verdict = outcome(row)
        check = row.get("check", {})
        if check.get("verdict") == "killed" and row.get("tests", {}).get(
                "verdict") != "killed":
            verdict = "unique " + ",".join(check.get("oracles", []))
        if verdict != "killed" and verdict != "unreached":
            print(f"{verdict}: {ident} in {row['def_name']}")
    return 0


def verify(layout: Layout) -> int:
    """Re-run :data:`SAMPLE` tests-lane survivors of def sites against
    every test."""
    survivors = [
        row for row in layout.done().values()
        if row.get("tests", {}).get("verdict") == "survived"
        and row["def_line"] != MODULE_LEVEL
    ]
    chosen = random.Random(0).sample(
        sorted(survivors, key=lambda r: r["site"]), min(SAMPLE, len(survivors))
    )
    fields = Site.__dataclass_fields__

    def one(row):
        site = Site(**{name: row[name] for name in fields})
        return mutate(layout, site, ALL_TESTS, False, VERIFY_TIMEOUT)

    failures = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for future in as_completed([pool.submit(one, row) for row in chosen]):
            row = future.result()
            verdict = row["tests"]["verdict"]
            failures += verdict != "survived"
            print(f"{row['site']}: {verdict} under every test "
                  f"({row['tests']['seconds']}s)", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} survivors stay survivors")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=REPO,
                        help="repository with src/ and the tests (default: this one)")
    parser.add_argument("--check", default=CHECK,
                        help="check command printing '  [oracle] ...' per "
                             "failure ('' for no check lane)")
    sub = parser.add_subparsers(dest="action", required=True)
    record_parser = sub.add_parser("record", help="record what each lane enters")
    record_parser.add_argument("out", type=Path)
    run_parser = sub.add_parser("run", help="mutate every site of some modules")
    run_parser.add_argument("out", type=Path)
    run_parser.add_argument("modules", nargs="+",
                            help="module paths relative to src/")
    run_parser.add_argument("--test-timeout", type=float, default=600.0)
    report_parser = sub.add_parser("report", help="kill matrix of a run")
    report_parser.add_argument("out", type=Path)
    verify_parser = sub.add_parser(
        "verify", help="re-run sampled survivors against every test")
    verify_parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    layout = Layout(args.repo, args.out, args.check)
    if args.action == "record":
        layout.record()
        return 0
    if args.action == "run":
        return run(layout, args.modules, args.test_timeout)
    if args.action == "report":
        return report(layout)
    return verify(layout)


if __name__ == "__main__":
    sys.exit(main())
