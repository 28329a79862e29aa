"""The initial ruleset: the contracts the codebase actually depends on.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  One module per contract family:

``determinism``  DET — RNG discipline, wall-clock, set-iteration order
``atomicity``    ATM — write-then-rename persistence
``arrays``       ARR — array persistence via the validated .npcol container
``fingerprint``  FPR — RunKey/config fingerprint classification
``layering``     LAY — declarative import-layer map
``tracing``      TRC — trace/replay taping restrictions
``pickling``     PKL — picklable execution payloads
``telemetry``    TEL — observability stays out of hashed records
``population``   POP — replay-pure sampling RNG
"""

from . import (  # noqa: F401  (imported for registration side effect)
    arrays,
    atomicity,
    determinism,
    fingerprint,
    layering,
    pickling,
    population,
    telemetry,
    tracing,
)
