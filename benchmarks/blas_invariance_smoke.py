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

Usage::

    python benchmarks/blas_invariance_smoke.py
"""

import json
import tempfile
from pathlib import Path

from smoke_common import cli_env, fail, run_cli, summary_counts

GRID_ARGS = ["--exp", "table1", "--methods", "calibre-simclr",
             "--rounds", "3", "--seeds", "0"]
CELLS = 4
THREADS = ("1", "4")


def sweep(store: Path, threads: str) -> None:
    env = cli_env()
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    counts = summary_counts(run_cli("sweep", "--quiet", "--runs-dir", str(store),
                                    *GRID_ARGS, env=env))
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
    print(f"OK: {len(names)} cell records byte-identical under "
          f"OPENBLAS_NUM_THREADS={' and ='.join(THREADS)}; "
          "every index entry stamped with 1 BLAS thread")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
