"""``tools/reachability.py`` on a toy package: it sees a def called in
the main process, in a forked pool worker (which ends by ``os._exit``)
and in a terminated child (SIGTERM), and lists the def nothing
called."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"

TOY = '''
import functools
import time


def called():
    return 1


def uncalled():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


def in_worker(x):
    return x * 2


def in_terminated(queue):
    queue.put("entered")
    time.sleep(60)
'''

MAIN = '''
import multiprocessing
import sys

sys.path.insert(0, {root!r})
import toy

if __name__ == "__main__":
    toy.called()
    toy.decorated()
    pool = multiprocessing.get_context("fork").Pool(1)
    assert pool.map(toy.in_worker, [1, 2]) == [2, 4]
    pool.close()
    pool.join()
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    child = context.Process(target=toy.in_terminated, args=(queue,))
    child.start()
    assert queue.get(timeout=60) == "entered"
    child.terminate()
    child.join()
    assert child.exitcode == -15, child.exitcode
'''


def _tool(*args, cwd):
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_called_and_uncalled_defs(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "toy.py").write_text(TOY, encoding="utf-8")
    (tmp_path / "main.py").write_text(
        textwrap.dedent(MAIN.format(root=str(root))), encoding="utf-8"
    )
    ran = _tool("--root", str(root), "run", "out", "--",
                sys.executable, "main.py", cwd=tmp_path)
    assert ran.returncode == 0, ran.stderr
    report = _tool("--root", str(root), "report", "out", cwd=tmp_path)
    assert report.returncode == 0, report.stderr
    lines = report.stdout.splitlines()
    assert lines[0] == "4 of 5 defs called; 1 never called"
    assert lines[1:] == ["toy.py:10 uncalled"]
