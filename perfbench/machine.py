"""The machine record every benchmark result carries."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional


def _commit(root: str) -> Optional[str]:
    """The git commit of ``root``, or ``None`` when ``root`` is not a git
    checkout (git is not asked to search the parent directories)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(root: str) -> str:
    """SHA-256 over every ``src/**/*.py`` path and its bytes: names the
    program version even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def machine_record(root: str, seed: Optional[int] = None) -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(root),
        "src_sha256": source_digest(root),
        "seed": seed,
    }
