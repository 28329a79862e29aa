"""Configuration dataclasses for federated experiments.

``FederatedConfig`` captures the paper's learning settings (§V-A): 100
clients, 10 sampled per round, 200 rounds, 3 local epochs, 10-epoch
personalization with SGD at lr 0.05 and batch size 32, plus 50 novel
clients.  Benchmark configurations scale these down for CPU (DESIGN.md §2)
without changing any code path.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional


def suggest_unknown_keys(unknown: Iterable[str], valid: Iterable[str],
                         kind: str) -> str:
    """A did-you-mean message for unknown keyword names.

    Shared by :meth:`FederatedConfig.with_overrides` and
    :func:`repro.eval.registry.build_method`, so every knob surface in the
    stack rejects typos the same way instead of passing them silently into
    ``**kwargs``.
    """
    valid = sorted(valid)
    parts = []
    for name in sorted(unknown):
        close = difflib.get_close_matches(name, valid, n=2, cutoff=0.5)
        hint = f" (did you mean {' or '.join(repr(c) for c in close)}?)" if close else ""
        parts.append(f"{name!r}{hint}")
    return (f"unknown {kind}: {', '.join(parts)}; "
            f"valid names: {', '.join(valid)}")


@dataclass(frozen=True)
class FederatedConfig:
    """Knobs of one federated run.

    ``backend``/``workers`` select the client-execution engine (see
    :mod:`repro.fl.execution`): ``"serial"`` (default) or ``"process"``,
    with ``workers=None`` meaning "all available cores".
    Backends are bitwise-deterministic, so these knobs change wall-clock
    time, never results.

    ``shared_memory`` controls the zero-copy client-data plane
    (:mod:`repro.data.shm`), which only the process backend uses:
    ``None`` (default) enables it automatically for the process backend,
    falling back silently to inline pickling when shared memory is
    unavailable; ``True`` requests it and warns when it cannot activate;
    ``False`` disables it.  Like the backend knobs it never changes
    results — workers read the same bytes either way.

    ``client_batch`` controls cohort-level vectorized execution (see
    :mod:`repro.nn.trace`): ``None`` (default) automatically batches each
    homogeneous cohort of sampled clients whole; ``1`` disables batching
    (the classic per-client path); ``k >= 2`` caps cohort size at ``k``.
    Batched execution is required to be bitwise identical to the
    per-client path, so — like backend/workers/shared_memory — this knob
    changes wall-clock time, never results, and is excluded from run
    fingerprints.
    """

    num_clients: int = 20
    clients_per_round: int = 5
    rounds: int = 10
    local_epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    personalization_epochs: int = 10
    personalization_lr: float = 0.05
    personalization_batch_size: int = 32
    test_fraction: float = 0.25
    num_novel_clients: int = 0
    seed: int = 0
    backend: str = "serial"
    workers: Optional[int] = None
    shared_memory: Optional[bool] = None
    client_batch: Optional[int] = None

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 1 <= self.clients_per_round <= self.num_clients:
            raise ValueError("clients_per_round must be in [1, num_clients]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1 or self.personalization_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.learning_rate <= 0 or self.personalization_lr <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.num_novel_clients < 0:
            raise ValueError("num_novel_clients must be >= 0")
        from .execution import available_backends, resolve_workers

        if not isinstance(self.backend, str) or self.backend.lower() not in available_backends():
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"available: {available_backends()}"
            )
        resolve_workers(self.workers)  # raises on non-positive / non-int values
        # Identity checks, not equality: the server dispatches on
        # ``is True`` / ``is not False``, so 0/1 must be rejected here
        # rather than behave differently from False/True downstream.
        if self.shared_memory is not None and not isinstance(self.shared_memory, bool):
            raise ValueError(
                f"shared_memory must be None (auto), True, or False, "
                f"got {self.shared_memory!r}"
            )
        # bool is an int subclass; reject it explicitly so client_batch=True
        # does not silently mean "disable batching".
        if self.client_batch is not None and (
                isinstance(self.client_batch, bool)
                or not isinstance(self.client_batch, int)
                or self.client_batch < 1):
            raise ValueError(
                f"client_batch must be None (auto) or an integer >= 1, "
                f"got {self.client_batch!r}"
            )

    def with_overrides(self, **kwargs) -> "FederatedConfig":
        """Return a copy with fields replaced.

        Unknown field names raise ``ValueError`` with a did-you-mean hint
        instead of the bare ``TypeError`` ``dataclasses.replace`` would
        produce — a sweep grid with a typo'd knob must fail loudly at
        declaration, not silently diverge from the intended config.
        """
        valid = {f.name for f in fields(self)}
        unknown = set(kwargs) - valid
        if unknown:
            raise ValueError(suggest_unknown_keys(unknown, valid,
                                                  "FederatedConfig override(s)"))
        return replace(self, **kwargs)


PAPER_CONFIG = FederatedConfig(
    num_clients=100,
    clients_per_round=10,
    rounds=200,
    local_epochs=3,
    batch_size=32,
    personalization_epochs=10,
    personalization_lr=0.05,
    num_novel_clients=50,
)
"""The paper's full-scale configuration (§V-A), kept for reference and for
anyone running this reproduction on serious hardware."""
