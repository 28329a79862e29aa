"""Report step of the ``pfl-process2`` workload.

``repro report`` reads only run stores, so the read-back of a ``repro run
--out`` artifact is this: load the JSON with :func:`repro.runs.load_outcome`
and render the same comparison table ``repro run`` printed.

    python3 perfbench/child.py --out-dir DIR --entry perfbench.reload:main -- OUT.json
"""

from __future__ import annotations

from typing import List


def main(argv: List[str]) -> int:
    from repro.eval import format_comparison_table
    from repro.runs import load_outcome

    (out_path,) = argv
    outcome = load_outcome(out_path)
    print(format_comparison_table(outcome, title=outcome.spec.name))
    return 0
