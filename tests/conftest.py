"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# A child's ru_maxrss counts the memory of the process it was forked from, up
# to its exec, so the command is started from this small launcher, not from the
# test process.  The launcher prints the exit code and ru_maxrss of its one child.
_LAUNCHER = """
import resource, subprocess, sys
code = subprocess.run([sys.executable, "-m", "signotopes.cli", *sys.argv[2:]],
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                      timeout=float(sys.argv[1])).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def run_cli_child(*argv: str, cwd, timeout: float = 120.0) -> tuple[int, float]:
    """Run ``python -m signotopes.cli *argv`` in a fresh interpreter.

    Returns its exit code and its peak resident memory in MB (``ru_maxrss``
    is in kilobytes on Linux).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, str(timeout), *argv], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True).stdout
    code, kilobytes = out.split()
    return int(code), int(kilobytes) / 1024


@pytest.fixture
def cli_child_rss(tmp_path):
    """``run_cli_child`` in the test's temporary directory."""
    return lambda *argv: run_cli_child(*argv, cwd=tmp_path)
