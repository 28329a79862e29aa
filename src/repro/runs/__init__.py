"""``repro.runs`` — sweep orchestration with a persistent, resumable store.

The paper's artifacts are grids of independent experiment cells (method x
non-i.i.d. setting x seed).  This subsystem makes such grids declarative
(:class:`SweepSpec`), content-addressed (:class:`RunKey` fingerprints),
persistent (:class:`RunStore`: one JSON record per cell, atomic writes),
and schedulable (:func:`run_sweep`: experiment-level parallelism over the
:mod:`repro.fl.execution` backends, resuming past finished cells).
"""

from .scheduler import (
    SweepSummary,
    cell_checkpoint_dir,
    execute_cell,
    make_record,
    run_sweep,
)
from .serialize import (
    EXECUTION_FIELDS,
    RECORD_SCHEMA,
    atomic_write_text,
    canonical_json,
    encode_record,
    load_outcome,
    outcome_from_jsonable,
    outcome_from_records,
    outcome_to_jsonable,
    save_outcome,
    spec_from_jsonable,
    spec_to_jsonable,
    to_jsonable,
)
from .spec import FINGERPRINT_LENGTH, RunKey, SweepSpec, SweepVariant
from .store import ARRAYS_KEY, CorruptRecord, RunStore, TIMING_FIELDS

__all__ = [
    "SweepSpec",
    "SweepVariant",
    "RunKey",
    "RunStore",
    "CorruptRecord",
    "ARRAYS_KEY",
    "run_sweep",
    "execute_cell",
    "make_record",
    "cell_checkpoint_dir",
    "SweepSummary",
    "TIMING_FIELDS",
    "outcome_from_records",
    "outcome_to_jsonable",
    "outcome_from_jsonable",
    "save_outcome",
    "load_outcome",
    "spec_to_jsonable",
    "spec_from_jsonable",
    "to_jsonable",
    "canonical_json",
    "encode_record",
    "atomic_write_text",
    "RECORD_SCHEMA",
    "EXECUTION_FIELDS",
    "FINGERPRINT_LENGTH",
]
