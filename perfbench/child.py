"""Run one program invocation in a fresh interpreter, with its hooks.

    python3 perfbench/child.py --out-dir DIR [--traced] [--entry MOD:FUNC] -- ARGV...

Imports ``repro.cli`` (timing the import), wraps the targets of
:mod:`perfbench.tracer` (only the round and pool-task hooks unless
``--traced``), records warnings, then calls ``repro.cli.main(ARGV)`` — or
``--entry`` — exactly as the ``repro`` console script would.  Standard
output is the program's own.  When the call returns, the process writes
``DIR/proc-<pid>.json`` with its spans, counters, timestamps, exit status
and numeric-environment stamp; forked pool workers write their own files.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
import traceback
import warnings

sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--entry", default="repro.cli:main")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import being timed)
    cli_import_s = time.perf_counter() - start

    from perfbench.stamp import numeric_stamp
    from perfbench.tracer import Recorder, install

    recorder = Recorder(args.out_dir, traced=args.traced)
    install(recorder, traced=args.traced)
    captured = []
    show = warnings.showwarning

    def record_warning(message, category, filename, lineno, file=None, line=None):
        captured.append({"category": category.__name__, "message": str(message),
                         "filename": filename, "lineno": lineno})
        show(message, category, filename, lineno, file, line)

    warnings.showwarning = record_warning
    module_name, _, function_name = args.entry.partition(":")
    entry = getattr(importlib.import_module(module_name), function_name)
    error = None
    try:
        status = entry(args.argv)
    except SystemExit as exit_:
        status = exit_.code
    except Exception:  # reported to the benchmark, which fails the run
        status, error = 1, traceback.format_exc()
    sys.stdout.flush()
    done = time.perf_counter()
    if status is None:
        status = 0
    elif not isinstance(status, int):
        status = 1
    recorder.flush({"done": done, "cli_import_s": cli_import_s,
                    "status": status, "error": error, "warnings": captured,
                    "stamp": numeric_stamp()})
    if error:
        sys.stderr.write(error)
    return status


if __name__ == "__main__":
    sys.exit(main())
