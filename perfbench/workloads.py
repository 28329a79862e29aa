"""The benchmark's workloads and one repetition of each, measured from outside.

A repetition runs a workload's program invocations one after another, each
in a fresh interpreter (:mod:`perfbench.child`) against an empty store or
output path in a private directory, and reads back what the program and
its pool workers recorded.  The program never sees the benchmark's seed
except as the grid/run seed flag a user would pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["Size", "SIZES", "Workload", "WORKLOADS", "Proc", "Rep", "run_rep",
           "CHANCE"]

CHILD = Path(__file__).resolve().with_name("child.py")

CHANCE = 0.5
"""Accuracy a guessing personalized head reaches under Q-non-iid (2, n):
each client holds two classes, so every method's mean must beat 1/2."""

PFL_METHODS = ("pfl-simclr", "pfl-simsiam")


@dataclass(frozen=True)
class Size:
    """How big one repetition is (rounds, cells, clients)."""

    table1_rounds: int
    table1_methods: Tuple[str, ...]  # empty: the full Table I grid
    pfl_rounds: int
    clients: Optional[int] = None  # None: the scaled config's 20
    samples: Optional[int] = None  # None: the Q-non-iid (2, 50) setting's 50

    def common_flags(self) -> List[str]:
        flags: List[str] = []
        if self.clients is not None:
            flags += ["--clients", str(self.clients)]
        if self.samples is not None:
            flags += ["--samples", str(self.samples)]
        return flags

    def table1_flags(self) -> List[str]:
        flags = ["--rounds", str(self.table1_rounds)] + self.common_flags()
        if self.table1_methods:
            flags += ["--methods", *self.table1_methods]
        return flags

    def table1_cells(self) -> int:
        return 4 * (len(self.table1_methods) or 3)


SIZES: Dict[str, Size] = {
    # Table I at 3 rounds a cell instead of 25, so every run fits the time
    # budget with at least two repetitions; pFL at the scaled config's 25.
    "full": Size(table1_rounds=3, table1_methods=(), pfl_rounds=25),
    # Seconds-long smoke of every code path, for the benchmark's own tests.
    "tiny": Size(table1_rounds=1, table1_methods=("calibre-simclr",),
                 pfl_rounds=2, clients=6, samples=20),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "table1" or "pfl"
    flags: Tuple[str, ...]  # scheduler / backend flags
    steps_in_workers: bool  # every round runs in a pool worker
    pool_tasks: bool  # a process pool must execute tasks
    why: str
    listed: bool = True  # in BENCHMARK.json; unlisted ones run only on request


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("table1-serial", "table1", (), False, False,
                 "Table I ablation, serial scheduler: all time in Calibre's "
                 "per-client path; no pool runs"),
        Workload("table1-process2", "table1", ("--scheduler", "process", "--jobs", "2"),
                 True, True,
                 "the same grid with two cells at a time: cell parallelism "
                 "and BLAS threads of two workers on the cores",
                 # Unlisted: with unpinned BLAS its two workers oversubscribe
                 # the cores; on a 2-core machine repetitions of one seed
                 # took from 13 s to 22 s (see DESIGN.md).
                 listed=False),
        Workload("pfl-process2", "pfl", ("--backend", "process", "--workers", "2"),
                 False, True,
                 "two cohort-batchable pFL-SSL methods on a 2-process client "
                 "pool: trace replay, shared memory and packed-store IPC"),
    )
}


@dataclass
class Proc:
    """One finished program process and what it and its workers recorded."""

    label: str
    launch: float
    end: float
    status: int
    cpu_s: float
    maxrss_mb: float
    stdout: str
    main: Dict  # the process's own proc-<pid>.json ({} if it wrote none)
    workers: List[Dict]

    @property
    def done(self) -> float:
        return self.main.get("done", self.end)

    def all_files(self) -> List[Dict]:
        return ([self.main] if self.main else []) + self.workers


@dataclass
class Rep:
    """One repetition of a workload: timings, outputs and what went wrong."""

    traced: bool
    procs: List[Proc]
    units: Dict[str, str]  # cell or method -> digest of its output
    means: Dict[str, float]  # cell or method -> mean accuracy
    report_text: str
    failures: List[str] = field(default_factory=list)
    setup_s: float = float("nan")
    artifact_s: float = float("nan")
    cpu_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    rounds_per_s: float = float("nan")
    round_s: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.procs[-1].end - self.procs[0].launch

    def digest(self) -> str:
        text = json.dumps({"units": self.units, "report": self.report_text},
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Launching
# ----------------------------------------------------------------------
def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(label: str, argv: List[str], work: Path, env: Dict[str, str],
           traced: bool, timeout: float, entry: Optional[str] = None) -> Proc:
    """Run one program invocation to completion; never leaves it running.

    Resource use comes from ``wait4`` on the child, which covers the child
    and every pool worker it reaped: user+sys seconds and the largest
    resident set among them.
    """
    out_dir = work / label
    out_dir.mkdir(parents=True)
    command = [sys.executable, str(CHILD), "--out-dir", str(out_dir)]
    if traced:
        command.append("--traced")
    if entry:
        command += ["--entry", entry]
    command += ["--", *argv]
    stdout_path, stderr_path = work / f"{label}.stdout", work / f"{label}.stderr"
    with open(stdout_path, "w") as stdout, open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=stdout, stderr=stderr, env=env,
                                 start_new_session=True)
        watchdog = threading.Timer(max(timeout, 1.0), _kill_group, (child.pid,))
        watchdog.start()
        try:
            _, wait_status, usage = os.wait4(child.pid, 0)
        except BaseException:
            _kill_group(child.pid)
            child.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        child.returncode = os.waitstatus_to_exitcode(wait_status)
    main: Dict = {}
    workers: List[Dict] = []
    for path in sorted(out_dir.glob("proc-*.json")):
        payload = json.loads(path.read_text())
        if payload["pid"] == child.pid:
            main = payload
        else:
            workers.append(payload)
    return Proc(label=label, launch=start, end=end, status=child.returncode,
                cpu_s=usage.ru_utime + usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0,
                stdout=stdout_path.read_text(), main=main, workers=workers)


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def _table1_units(store: Path) -> Tuple[Dict[str, str], Dict[str, float]]:
    units, means = {}, {}
    for path in sorted((store / "cells").glob("*.json")):
        data = path.read_bytes()
        units[path.stem] = hashlib.sha256(data).hexdigest()
        record = json.loads(data)
        key = record["key"]
        means[f"{key['method']} {key.get('variant', '')}".strip()] = record["report"]["mean"]
    return units, means


def _pfl_units(out: Path) -> Tuple[Dict[str, str], Dict[str, float]]:
    """Per-method digests of the ``--out`` JSON with execution fields removed."""
    from repro.runs import EXECUTION_FIELDS

    payload = json.loads(out.read_text())
    for name in EXECUTION_FIELDS:
        payload["spec"]["config"].pop(name, None)
    units, means = {}, {}
    for method in sorted(payload["reports"]):
        text = json.dumps({"spec": payload["spec"], "result": payload["results"][method],
                           "report": payload["reports"][method]}, sort_keys=True)
        units[method] = hashlib.sha256(text.encode()).hexdigest()
        means[method] = payload["reports"][method]["mean"]
    return units, means


def _steps(proc: Proc) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """``(main-process rounds, worker-process rounds)`` of ``proc``."""
    main = [tuple(step) for step in proc.main.get("steps", [])]
    workers = [tuple(step) for payload in proc.workers for step in payload["steps"]]
    return main, workers


def _health(workload: Workload, procs: List[Proc], expected_rounds: int) -> List[str]:
    """Failures that would otherwise pass as a merely slower run."""
    failures = []
    for proc in procs:
        if proc.status != 0 or not proc.main:
            failures.append(f"{proc.label} exited with status {proc.status}")
        for warning in proc.main.get("warnings", []):
            if (warning["category"] == "RuntimeWarning"
                    and "falling back to serial" in warning["message"]):
                failures.append(f"{proc.label}: serial fallback: {warning['message']}")
        fallbacks = sum(payload.get("counters", {}).get("fl.execution.serial_fallbacks", 0)
                        for payload in proc.all_files())
        if fallbacks:
            failures.append(f"{proc.label}: {fallbacks:g} serial fallback(s)")
    program = procs[0]
    main_steps, worker_steps = _steps(program)
    if len(main_steps) + len(worker_steps) != expected_rounds:
        failures.append(f"{program.label}: {len(main_steps) + len(worker_steps)} rounds "
                        f"recorded, expected {expected_rounds}")
    if workload.steps_in_workers and main_steps:
        failures.append(f"{program.label}: {len(main_steps)} rounds ran in the "
                        "coordinator instead of pool workers")
    tasks = sum(payload["stats"].get("fl.execution.worker_task", [0])[0]
                for payload in program.workers)
    if workload.pool_tasks and tasks == 0:
        failures.append(f"{program.label}: no worker-side samples "
                        "(pool tasks did not run in forked workers)")
    return failures


def run_rep(workload: Workload, size: Size, seed: int, work: Path,
            env: Dict[str, str], traced: bool, timeout: float) -> Rep:
    """Run one repetition of ``workload`` in the empty directory ``work``."""
    seed_text = str(seed)
    if workload.kind == "table1":
        store = work / "store"
        grid = ["--exp", "table1", "--runs-dir", str(store), "--seeds", seed_text,
                *size.table1_flags()]
        deadline = time.perf_counter() + timeout
        sweep = launch("sweep", ["sweep", *grid, *workload.flags], work, env,
                       traced, deadline - time.perf_counter())
        report = launch("report", ["report", *grid], work, env, traced,
                        deadline - time.perf_counter())
        procs = [sweep, report]
        units, means = _table1_units(store)
        rep = Rep(traced, procs, units, means, report_text=report.stdout)
        expected_rounds = size.table1_cells() * size.table1_rounds
        expected_units = size.table1_cells()
        rep.artifact_s = report.done - sweep.launch
        rep.cpu_s = sweep.cpu_s + report.cpu_s
        rep.peak_rss_mb = max(sweep.maxrss_mb, report.maxrss_mb)
        if "Table I" not in report.stdout:
            rep.failures.append("report printed no Table I")
    else:
        out = work / "outcome.json"
        argv = ["run"]
        for method in PFL_METHODS:
            argv += ["--method", method]
        argv += [*workload.flags, "--seed", seed_text, "--rounds", str(size.pfl_rounds),
                 *size.common_flags(), "--out", str(out)]
        deadline = time.perf_counter() + timeout
        run = launch("run", argv, work, env, traced, deadline - time.perf_counter())
        report = launch("report", [str(out)], work, env, traced,
                        deadline - time.perf_counter(), entry="perfbench.reload:main")
        procs = [run, report]
        units, means = _pfl_units(out) if out.exists() else ({}, {})
        rep = Rep(traced, procs, units, means, report_text=report.stdout)
        expected_rounds = len(PFL_METHODS) * size.pfl_rounds
        expected_units = len(PFL_METHODS)
        rep.artifact_s = run.done - run.launch
        rep.cpu_s = run.cpu_s
        rep.peak_rss_mb = run.maxrss_mb
        if not report.stdout.strip() or report.stdout.strip() not in run.stdout:
            rep.failures.append("reloaded --out table differs from the table "
                                "`repro run` printed")
    rep.failures += _health(workload, procs, expected_rounds)
    if len(units) != expected_units:
        rep.failures.append(f"{len(units)} outputs written, expected {expected_units}")
    for unit, mean in sorted(means.items()):
        if not mean > CHANCE:
            rep.failures.append(f"{unit}: mean accuracy {mean:.4f} is not above "
                                f"chance {CHANCE}")
    main_steps, worker_steps = _steps(procs[0])
    rounds = sorted(main_steps + worker_steps)
    if rounds:
        rep.setup_s = rounds[0][0] - procs[0].launch
        rep.round_s = [end - start for start, end in rounds]
        span = max(end for _, end in rounds) - rounds[0][0]
        rep.rounds_per_s = len(rounds) / span if span > 0 else float("nan")
    return rep
