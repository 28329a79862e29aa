"""BLAS-invariance smoke check (CI guard for the one-thread BLAS pin).

A cell's record must be a function of its config alone.  This sweeps one
Table I grid (``calibre-simclr``, 3 rounds, seed 0: four cells) twice
through the real CLI, once under ``OPENBLAS_NUM_THREADS=1`` and once
under ``=4`` (``OMP_NUM_THREADS`` set to match), and requires every
``cells/*.json`` to be byte-identical across the two stores.  The
program pins BLAS to one thread whatever the environment says
(docs/invariants.md, "Numeric environment"); without the pin,
OpenBLAS's multi-threaded kernels sum in another order and the records
differ.  Every ``index.jsonl`` entry must also carry a numeric stamp
reporting one BLAS thread.

A second leg calls the library directly, as the paper-claim benches do:
``run_table1`` for ``calibre-simclr`` at 5 rounds, in one fresh
interpreter per thread count, must return identical rows.  The library
path pins BLAS itself (``run_experiment`` and ``TrainingSession``), so
it must not depend on the caller having gone through the CLI.

Usage::

    python benchmarks/blas_invariance_smoke.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_common import REPO_ROOT, cli_env, fail, run_cli, summary_counts

GRID_ARGS = ["--exp", "table1", "--methods", "calibre-simclr",
             "--rounds", "3", "--seeds", "0"]
CELLS = 4
THREADS = ("1", "4")

LIBRARY_CALL = """
from repro.experiments import run_table1
from repro.experiments.settings import SCALED_CONFIG
from repro.runs import canonical_json

rows = run_table1(variants=("calibre-simclr",), seed=0,
                  config=SCALED_CONFIG.with_overrides(rounds=5))
print(canonical_json(rows))
"""


def thread_env(threads: str):
    env = cli_env()
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    return env


def library_rows(threads: str) -> str:
    result = subprocess.run([sys.executable, "-c", LIBRARY_CALL],
                            capture_output=True, text=True,
                            env=thread_env(threads), cwd=REPO_ROOT)
    if result.returncode != 0:
        fail(f"run_table1 under {threads} BLAS thread(s) exited "
             f"{result.returncode}:\n{result.stderr}")
    return result.stdout.strip().splitlines()[-1]


def check_library_path() -> None:
    rows = {threads: library_rows(threads) for threads in THREADS}
    if rows[THREADS[0]] != rows[THREADS[1]]:
        fail(f"run_table1 rows differ between OPENBLAS_NUM_THREADS="
             f"{THREADS[0]} and ={THREADS[1]}:\n"
             + "\n".join(f"  {threads}: {text}" for threads, text in rows.items()))


def sweep(store: Path, threads: str) -> None:
    counts = summary_counts(run_cli("sweep", "--quiet", "--runs-dir", str(store),
                                    *GRID_ARGS, env=thread_env(threads)))
    if counts[0] != CELLS:
        fail(f"sweep under {threads} BLAS thread(s): expected "
             f"executed={CELLS}, got {counts}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="blas-invariance-") as tmp:
        stores = {threads: Path(tmp) / f"threads-{threads}" for threads in THREADS}
        for threads, store in stores.items():
            sweep(store, threads)
        reference, other = (stores[threads] / "cells" for threads in THREADS)
        names = sorted(path.name for path in reference.glob("*.json"))
        if names != sorted(path.name for path in other.glob("*.json")):
            fail("the two sweeps stored different cell sets")
        differing = [name for name in names
                     if (reference / name).read_bytes() != (other / name).read_bytes()]
        if differing:
            fail(f"{len(differing)} of {len(names)} cell records differ between "
                 f"OPENBLAS_NUM_THREADS={THREADS[0]} and ={THREADS[1]}: "
                 f"{differing}")
        for threads, store in stores.items():
            for line in (store / "index.jsonl").read_text().splitlines():
                stamp = json.loads(line).get("numerics") or {}
                if stamp.get("blas_threads") != 1:
                    fail(f"index entry under OPENBLAS_NUM_THREADS={threads} "
                         f"does not report one BLAS thread: {stamp}")
    check_library_path()
    print(f"OK: {len(names)} cell records byte-identical under "
          f"OPENBLAS_NUM_THREADS={' and ='.join(THREADS)}; "
          "every index entry stamped with 1 BLAS thread; "
          "run_table1 rows identical on the library path")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
