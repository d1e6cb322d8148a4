"""``tools/mutate.py`` on a toy package: a mutant a test kills, one
only the check command kills, one a test kills in a child process (also
one whose ``PYTHONPATH`` the test works out from its own ``__file__``),
an equivalent survivor, a def no test reaches and a loop mutant that
never ends and is cut by the timeout as a hang."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"

TOY = '''
def add(a, b):
    return a + b


def double(x):
    return x * 2


def clamp(x):
    return x if x > 0 else 0


def count(n):
    i = 0
    while i < n:
        i += 1
    return i


def unreached():
    return 1 - 1


def square(x):
    return x * x


def cube(x):
    return x * x * x
'''

CHECK = '''
import sys

from toy import add, double

failed = False
if add(2, 2) != 4:
    print("  [adder] add(2, 2) is not 4")
    failed = True
if double(3) != 6:
    print("  [doubler] double(3) is not 6")
    failed = True
sys.exit(1 if failed else 0)
'''

TESTS = '''
import os
import subprocess
import sys

from toy import add, clamp, count, double


def test_add():
    assert add(2, 3) == 5


def test_double():
    assert double(0) == 0


def test_clamp():
    assert clamp(-3) == 0
    assert clamp(4) == 4


def test_count():
    assert count(3) == 3


def test_square_in_a_child():
    child = subprocess.run(
        [sys.executable, "-c", "import toy; print(toy.square(3))"],
        capture_output=True, text=True, check=True,
    )
    assert child.stdout == "9\\n"


def test_cube_in_a_child_on_the_tests_own_path():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = subprocess.run(
        [sys.executable, "-c", "import toy; print(toy.cube(3))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert child.stdout == "27\\n"
'''


def _tool(root: Path, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(TOOL), "--repo", str(root),
         "--check", f"{sys.executable} -m toy_check", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def test_mutants_are_killed_survive_hang_or_go_unreached(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text(textwrap.dedent(TOY))
    (tmp_path / "src" / "toy_check.py").write_text(textwrap.dedent(CHECK))
    (tmp_path / "tests" / "test_toy.py").write_text(textwrap.dedent(TESTS))
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    out = tmp_path / "out"

    _tool(tmp_path, "record", str(out))
    _tool(tmp_path, "run", str(out), "toy.py", "--test-timeout", "8")
    rows = [
        json.loads(line)
        for line in (out / "results.jsonl").read_text().splitlines()
    ]
    by_edit = {
        (row["def_name"], row["before"], row["after"]): row for row in rows
    }

    # The tests kill it, so the check does not run.
    killed = by_edit[("add", "+", "-")]
    assert killed["tests"]["verdict"] == "killed"
    assert "check" not in killed
    unique = by_edit[("double", "*", "//")]
    assert unique["tests"]["verdict"] == "survived"
    assert unique["check"]["verdict"] == "killed"
    assert unique["check"]["oracles"] == ["doubler"]
    # x == 0 gives 0 on both sides of the comparison.
    equivalent = by_edit[("clamp", ">", ">=")]
    assert equivalent["tests"]["verdict"] == "survived"
    assert "check" not in equivalent
    unreached = by_edit[("unreached", "-", "+")]
    assert "tests" not in unreached and "check" not in unreached
    # Only a child process of the test calls square: the record sees it.
    assert by_edit[("square", "*", "//")]["tests"]["verdict"] == "killed"
    # The child finds src/ from the test file's own path, and the record
    # and the mutant both run from a copy, so it imports the copy's toy.
    assert by_edit[("cube", "*", "//")]["tests"]["verdict"] == "killed"
    hang = by_edit[("count", "+=", "-=")]
    assert hang["tests"]["verdict"] == "hang"
    assert hang["tests"]["seconds"] < 30
    # Every mutant ran in a copy; the tree itself is untouched.
    assert (tmp_path / "src" / "toy.py").read_text() == textwrap.dedent(TOY)

    report = _tool(tmp_path, "report", str(out))
    # x * 3 and x // 2 both pass double(0) and fail double(3).
    assert ["doubler", "2", "2", "0"] in [line.split() for line in report.splitlines()]
    assert "unique doubler: toy.py:7:13 * -> // in double" in report
    assert "survived: toy.py:11:18 > -> >= in clamp" in report
    assert "hang: toy.py:17:10 += -> -= in count" in report
