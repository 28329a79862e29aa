"""Shared plumbing for the CLI smoke scripts (CI guards).

Every smoke script drives the real ``repro`` CLI as a subprocess; the
invocation boilerplate — the ``PYTHONPATH=src`` environment, failure
reporting, and the sweep-summary parser — lives here once.  The scripts
run standalone (``python benchmarks/<name>.py``), which puts this
directory on ``sys.path``, so they import this module by bare name.
Importing it also puts the checkout's ``src/`` on ``sys.path``, so a smoke
that imports ``repro`` in-process runs from a plain, uninstalled checkout.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SUMMARY_PATTERN = re.compile(
    r"executed=(\d+) skipped=(\d+) deferred=(\d+) total=(\d+)")


def fail(message: str):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return env


def run_cli(*args: str, env=None) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=env or cli_env(), cwd=REPO_ROOT,
    )
    if result.returncode != 0:
        fail(f"repro {' '.join(args[:2])} exited {result.returncode}:\n"
             f"{result.stdout}\n{result.stderr}")
    return result.stdout


def summary_counts(stdout: str):
    match = SUMMARY_PATTERN.search(stdout)
    if not match:
        fail(f"no sweep summary line in output:\n{stdout}")
    return tuple(int(group) for group in match.groups())
