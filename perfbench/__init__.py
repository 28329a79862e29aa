"""End-to-end benchmark of the Calibre reproduction, timed from outside.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) in fresh interpreters
against empty temporary stores, checks the outputs, and prints one JSON
result line.  Nothing under ``src/`` is edited: per-layer numbers come from
wrapping public functions of ``repro`` modules (see :mod:`perfbench.tracer`).
"""
