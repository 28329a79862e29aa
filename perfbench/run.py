"""End-to-end benchmark: time-to-artifact of the Calibre reproduction.

    python3 perfbench/run.py --workload table1-serial --seed 0 --seconds 55 --trace 0

Runs from the root of a source checkout.  Repeats the workload (a fresh
interpreter per program invocation, an empty store per repetition) until
``--seconds`` would be exceeded, with at least two repetitions, and checks
that every repetition wrote byte-identical outputs with every method above
chance.  ``--trace 0`` reports the end-to-end metrics of untraced
repetitions; ``--trace 1`` alternates untraced and traced repetitions and
reports per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit status
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT), str(ROOT / "src")]

from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end, per_layer  # noqa: E402
from perfbench.stamp import BLAS_THREAD_VARS, machine_stamp  # noqa: E402
from perfbench.workloads import SIZES, WORKLOADS, Rep, run_rep  # noqa: E402

MIN_REPS = 2
RUN_LIMIT_S = 170.0  # hard stop for one benchmark run, below the 180 s allowed


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="repetition size ('tiny' is the tests' smoke size)")
    return parser.parse_args(argv)


def program_env(tmp: Path) -> Dict[str, str]:
    """The caller's environment minus BLAS thread pins, with the source on the path."""
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARS}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(tmp)
    return env


def _check_outputs(reps: List[Rep], units_per_rep: int) -> int:
    """Append cross-repetition mismatches to each rep; return failed units."""
    reference = reps[0]
    failed = 0
    for rep in reps:
        if rep is not reference:
            differing = sorted(unit for unit in set(reference.units) | set(rep.units)
                               if reference.units.get(unit) != rep.units.get(unit))
            if differing:
                rep.failures.append(f"{len(differing)} output(s) differ from the "
                                    f"first repetition: {differing[:4]}")
            if rep.report_text != reference.report_text:
                rep.failures.append("report text differs from the first repetition")
        failed += units_per_rep if rep.failures else 0
    return failed


def _cross_check(workload_name: str, key: str, digest: str) -> List[str]:
    """Compare with digests other workloads of the same grid left in this checkout.

    ``table1-serial`` and ``table1-process2`` run the same cells, so their
    records and report text must be byte-identical.
    """
    path = ROOT / ".perfbench" / "digests.json"
    path.parent.mkdir(exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    entry = known.setdefault(key, {})
    problems = [f"output digest differs from {other}'s ({other_digest[:12]})"
                for other, other_digest in sorted(entry.items())
                if other != workload_name and other_digest != digest]
    entry[workload_name] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    started = time.perf_counter()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        (work / "tmp").mkdir()
        env = program_env(work / "tmp")
        deadline = started + args.seconds
        reps: List[Rep] = []
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            timeout = started + RUN_LIMIT_S - time.perf_counter()
            reps.append(run_rep(workload, size, args.seed, work / f"rep{len(reps)}",
                                env, traced, timeout))
            longest = max(rep.wall_s for rep in reps)
            if len(reps) >= MIN_REPS and time.perf_counter() + longest > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units_per_rep = len(reps[0].units) or 1
    attempted = units_per_rep * len(reps)
    failed = _check_outputs(reps, units_per_rep)
    digest = reps[0].digest()
    grid = f"{workload.kind} seed={args.seed} size={args.size}"
    stamp = {**machine_stamp(ROOT), **reps[0].procs[0].main.get("stamp", {}),
             "seed": args.seed, "workload": workload.name}
    cross = (_cross_check(workload.name, f"{grid} source={stamp['source_digest']}",
                          digest) if not failed else [])
    if cross:
        failed = attempted
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"digest {grid}: {digest}")
    for index, rep in enumerate(reps):
        kind = "traced" if rep.traced else "untraced"
        print(f"rep {index} ({kind}): wall {rep.wall_s:.2f} s, setup {rep.setup_s:.3f} s, "
              f"artifact {rep.artifact_s:.3f} s, {len(rep.round_s)} rounds, "
              f"{rep.rounds_per_s:.3f} rounds/s, cpu {rep.cpu_s:.2f} s")
        for failure in rep.failures:
            print(f"  FAILED: {failure}")
    for problem in cross:
        print(f"FAILED: {problem}")

    untraced = [rep for rep in reps if not rep.traced]
    if args.trace:
        traced = [rep for rep in reps if rep.traced]
        layers = [per_layer(rep) for rep in traced]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["bench.trace_overhead_share"] = (
            statistics.median(rep.artifact_s for rep in traced)
            / statistics.median(rep.artifact_s for rep in untraced) - 1.0)
        names = PER_LAYER
    else:
        values = end_to_end(untraced, ok_frac=1.0 - failed / attempted)
        names = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _better) in names.items()}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
