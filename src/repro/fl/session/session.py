"""The composable, checkpointable round loop: :class:`TrainingSession`.

The session is the one driver of a federated run.  It

* owns an explicit, serializable :class:`~repro.fl.session.state.ServerState`
  (global model, round cursor, history, algorithm server state, client
  stores) and advances it via :meth:`step` / :meth:`run_until`;
* emits typed lifecycle events (:mod:`repro.fl.session.events`) to
  registered callbacks at every seam of the loop;
* consumes client updates as an *iterator of completed results*
  (``ExecutionBackend.imap_clients``), handing each update to the round's
  :class:`~repro.fl.algorithm.UpdateAccumulator` the moment it finishes —
  store write-back and per-update aggregation work overlap with
  still-running clients instead of waiting for the round barrier;
* checkpoints and restores at round granularity: a run resumed from a
  checkpoint taken at round k is bitwise identical to the uninterrupted
  run, across serial and process backends.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ...nn.serialize import StateDict, clone_state
from ...telemetry import InstrumentedTask, TaskOutcome, Tracer, current_tracer
from ..algorithm import ClientUpdate, FederatedAlgorithm
from ..client import ClientData
from ..config import FederatedConfig
from ..execution import ExecutionBackend, pin_blas_threads, resolve_backend
from ..history import RoundRecord, RunResult
from ..sampler import RandomSampler
from .events import (
    AggregateDone,
    ClientUpdateDone,
    EVENT_HOOKS,
    PersonalizeDone,
    RoundBegin,
    RoundEnd,
    SessionCallback,
    SessionEvent,
)
from .state import ServerState, read_checkpoint, write_checkpoint

__all__ = ["TrainingSession", "default_session_context"]


@dataclass
class _ClientOutcome:
    """What one client task ships back to the coordinator.

    ``store`` carries the client's persistent algorithm state: under the
    process backend the worker mutates a pickled copy of the client, so the
    store must travel back explicitly for the coordinator to reattach.
    """

    client_id: int
    result: object
    store: Dict


def _local_update_task(algorithm: FederatedAlgorithm, global_state: StateDict,
                       round_index: int, client: ClientData) -> _ClientOutcome:
    """One sampled client's round contribution (module-level: picklable)."""
    update = algorithm.local_update(client, global_state, round_index)
    return _ClientOutcome(client.client_id, update, client.store)


def _cohort_update_task(algorithm: FederatedAlgorithm, global_state: StateDict,
                        round_index: int, clients: Sequence[ClientData]
                        ) -> List[_ClientOutcome]:
    """One cohort's round contribution (module-level: picklable).

    Returns one outcome per client, in cohort order, so the coordinator can
    reattach stores and feed the aggregator at original input positions.
    """
    updates = algorithm.cohort_update(clients, global_state, round_index)
    return [_ClientOutcome(client.client_id, update, client.store)
            for client, update in zip(clients, updates)]


def _personalize_task(algorithm: FederatedAlgorithm, global_state: StateDict,
                      client: ClientData) -> _ClientOutcome:
    """One client's personalization stage (module-level: picklable)."""
    result = algorithm.personalize(client, global_state)
    return _ClientOutcome(client.client_id, result, client.store)


def _client_span_attrs(round_index: int, client: ClientData) -> Dict:
    """Span attrs for one client-update task (module-level: picklable)."""
    return {"round": round_index, "client_id": int(client.client_id)}


def _cohort_span_attrs(round_index: int,
                       clients: Sequence[ClientData]) -> Dict:
    """Span attrs for one cohort-update task (module-level: picklable)."""
    return {"round": round_index, "cohort_size": len(clients)}


def _personalize_span_attrs(client: ClientData) -> Dict:
    """Span attrs for one personalize task (module-level: picklable)."""
    return {"client_id": int(client.client_id)}


# FederatedConfig knobs that change wall-clock, never results (see
# :mod:`repro.fl.execution`) — excluded from the context fingerprint so a
# checkpoint taken under one backend restores under any other.
_EXECUTION_KNOBS = ("backend", "workers", "shared_memory", "client_batch")


def default_session_context(algorithm: FederatedAlgorithm,
                            clients: Sequence[ClientData], config) -> str:
    """Fingerprint of what a checkpoint is only valid against.

    Hashes the algorithm name, the result-determining config fields, and
    the federation's shape (client ids and local sample counts).  It is a
    guard against *accidental* cross-run resume — a different seed, sample
    count, or client grid — not a cryptographic identity of the data.  The
    experiment harness substitutes a stronger fingerprint of the full
    :class:`~repro.eval.harness.ExperimentSpec`.
    """
    config_payload = {name: value for name, value in asdict(config).items()
                      if name not in _EXECUTION_KNOBS}
    payload = {
        "algorithm": algorithm.name,
        "config": config_payload,
        "clients": [[int(client.client_id), int(client.num_train_samples)]
                    for client in clients],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:16]


class TrainingSession:
    """Coordinates one federated run of a given algorithm, resumably.

    Each round samples participants from the materialized ``clients``
    (``sampler.sample(clients, round_index)``) and combines their updates
    through the algorithm's own aggregator
    (:meth:`~repro.fl.algorithm.FederatedAlgorithm.make_aggregator`).
    """

    def __init__(
        self,
        algorithm: FederatedAlgorithm,
        clients: Sequence[ClientData],
        config: FederatedConfig,
        novel_clients: Sequence[ClientData] = (),
        sampler=None,
        backend: Union[ExecutionBackend, str, None] = None,
        callbacks: Sequence[SessionCallback] = (),
        context: Optional[str] = None,
        verbose: bool = False,
        tracer: Optional[Tracer] = None,
    ):
        # Telemetry is observation-only: spans and counters go to the
        # tracer (explicit, or the ambient one active at construction);
        # with no tracer every instrumentation point is a no-op and the
        # round loop runs exactly the un-instrumented code path.
        self.tracer = tracer if tracer is not None else current_tracer()
        self.algorithm = algorithm
        # One BLAS thread: the thread count changes summation order, and a
        # run's result must be a function of its config alone.  Idempotent,
        # so library callers get the same numbers as the CLI.
        pin_blas_threads()
        self.clients = list(clients)
        if not self.clients:
            raise ValueError("need at least one client")
        self.novel_clients = list(novel_clients)
        self.config = config
        self.sampler = sampler if sampler is not None else RandomSampler(
            min(config.clients_per_round, len(self.clients)), seed=config.seed
        )
        # An explicit backend (instance or name) overrides the config knobs;
        # the session owns — and closes — only backends it created itself.
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(
            backend if backend is not None else config.backend,
            workers=config.workers,
        )
        self.verbose = verbose
        self.callbacks: List[SessionCallback] = list(callbacks)
        self.context = (context if context is not None
                        else default_session_context(algorithm, self.clients,
                                                     config))
        self._state = ServerState(algorithm=algorithm.name)
        self._initialized = False
        self._stop_requested = False
        self._warned_non_finite = False
        # Shared-memory client-data plane (repro.data.shm): with the knob
        # on (or on auto), ask the backend to move client datasets into a
        # shared store so per-round pickles ship handles, not arrays.
        # The serial backend no-ops; the process backend degrades
        # gracefully when shared memory cannot be created here.
        self.shared_memory_active = False
        if config.shared_memory is not False:
            self.shared_memory_active = self.backend.register_clients(
                self.clients + self.novel_clients
            )
            if config.shared_memory is True and not self.shared_memory_active:
                warnings.warn(
                    "shared_memory=True requested but the shared-memory data "
                    "plane could not activate (backend without a data plane, "
                    "or shared memory unavailable); falling back to inline "
                    "client pickling",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """The next round to execute (== number of completed rounds)."""
        return self._state.round_index

    @property
    def global_state(self) -> Optional[StateDict]:
        return self._state.global_state

    @property
    def round_records(self) -> List[RoundRecord]:
        return self._state.round_records

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def request_stop(self) -> None:
        """Ask the run loop to stop after the current round commits."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Callbacks and events
    # ------------------------------------------------------------------
    def add_callback(self, callback: SessionCallback) -> SessionCallback:
        self.callbacks.append(callback)
        return callback

    def remove_callback(self, callback: SessionCallback) -> None:
        self.callbacks.remove(callback)

    def _emit(self, event: SessionEvent) -> None:
        hook = EVENT_HOOKS.get(type(event), "on_event")
        for callback in self.callbacks:
            getattr(callback, hook)(self, event)

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _span(self, name: str, **attrs):
        """A tracer span, or a no-op context when telemetry is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    def _count(self, name: str, value: float = 1.0) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

    def _instrument(self, task, span_name: str, describe):
        """Wrap a backend task so workers record spans shipped back with
        their results (no-op passthrough when telemetry is off)."""
        if self.tracer is None:
            return task
        return InstrumentedTask(task, span_name, describe=describe)

    def _unbox(self, outcome):
        """Merge a worker fragment (if any) and return the task's result."""
        if isinstance(outcome, TaskOutcome):
            self.tracer.merge_fragment(outcome.telemetry)
            return outcome.result
        return outcome

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Build the round-0 global state (idempotent)."""
        if not self._initialized:
            self._state.global_state = self.algorithm.build_global_state()
            self._initialized = True

    def step(self) -> RoundRecord:
        """Advance exactly one communication round and commit it."""
        self.initialize()
        round_index = self._state.round_index
        with self._span("round", round=round_index):
            return self._step_inner(round_index)

    def _step_inner(self, round_index: int) -> RoundRecord:
        with self._span("sample", round=round_index):
            participants = self.sampler.sample(self.clients, round_index)
        self._emit(RoundBegin(
            round_index=round_index,
            participant_ids=tuple(client.client_id for client in participants),
        ))
        aggregator = self.algorithm.make_aggregator(
            self._state.global_state, round_index)
        cohorts = self._plan_cohorts(participants)
        if cohorts is None:
            task = self._instrument(
                functools.partial(
                    _local_update_task, self.algorithm,
                    self._state.global_state, round_index,
                ),
                "client_update",
                functools.partial(_client_span_attrs, round_index),
            )
            # Stream completed updates: stores reattach and the
            # aggregator ingests each update the moment its client
            # finishes, while other clients are still running.
            with self._span("dispatch", round=round_index,
                            participants=len(participants)):
                for index, boxed in self.backend.imap_clients(
                        task, participants):
                    outcome = self._unbox(boxed)
                    participants[index].store = outcome.store
                    aggregator.add(index, outcome.result)
                    self._emit(ClientUpdateDone(
                        round_index=round_index,
                        client_id=outcome.client_id,
                        update=outcome.result,
                    ))
        else:
            # Cohort dispatch: homogeneous clients travel together so the
            # algorithm's vectorized engine (if any) can batch them.  The
            # aggregator is still fed at *original* sample positions, so
            # aggregation order — and therefore results — match the
            # per-client path bitwise.
            cohort_task = self._instrument(
                functools.partial(
                    _cohort_update_task, self.algorithm,
                    self._state.global_state, round_index,
                ),
                "cohort_update",
                functools.partial(_cohort_span_attrs, round_index),
            )
            groups = [[participants[position] for position in positions]
                      for positions in cohorts]
            with self._span("dispatch", round=round_index,
                            participants=len(participants),
                            cohorts=len(groups)):
                for group_index, boxed in self.backend.imap_cohorts(
                        cohort_task, groups):
                    outcomes = self._unbox(boxed)
                    for position, outcome in zip(cohorts[group_index],
                                                 outcomes):
                        participants[position].store = outcome.store
                        aggregator.add(position, outcome.result)
                        self._emit(ClientUpdateDone(
                            round_index=round_index,
                            client_id=outcome.client_id,
                            update=outcome.result,
                        ))
        with self._span("aggregate", round=round_index):
            new_global = aggregator.finalize()
            updates: List[ClientUpdate] = list(aggregator.updates_in_order())
        self._emit(AggregateDone(round_index=round_index,
                                 num_updates=len(updates)))
        # Non-finite client losses (divergence, dead activations) are
        # excluded from the mean but never silently: they are counted
        # into the round record and warned about once per run.
        losses: List[float] = []
        non_finite = 0
        for update in updates:
            value = update.metrics.get("loss")
            if value is None:
                continue
            if np.isfinite(value):
                losses.append(float(value))
            else:
                non_finite += 1
        if non_finite:
            self._count("round.non_finite_losses", non_finite)
        if non_finite and not self._warned_non_finite:
            self._warned_non_finite = True
            warnings.warn(
                f"round {round_index}: {non_finite} client(s) reported a "
                "non-finite training loss; they are excluded from "
                "mean_loss and counted in RoundRecord.metrics"
                "['non_finite_losses']",
                RuntimeWarning,
                stacklevel=2,
            )
        record = RoundRecord(
            round_index=round_index,
            participant_ids=[u.client_id for u in updates],
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            metrics={"non_finite_losses": float(non_finite)},
        )
        self._state.round_records.append(record)
        self._state.global_state = new_global
        self._state.round_index = round_index + 1
        if self.verbose:
            print(
                f"[{self.algorithm.name}] round {round_index + 1}/"
                f"{self.config.rounds} loss={record.mean_loss:.4f}"
            )
        self._emit(RoundEnd(round_index=round_index, record=record))
        return record

    def _plan_cohorts(self, participants: Sequence[ClientData]
                      ) -> Optional[List[List[int]]]:
        """Group this round's participants for cohort dispatch.

        Returns a list of position groups (indices into ``participants``),
        or ``None`` when cohort dispatch would be pointless — batching is
        disabled (``client_batch=1``), fewer than two participants, or no
        two clients share a cohort key — in which case :meth:`step` runs
        the classic per-client path verbatim.

        Grouping is by :meth:`FederatedAlgorithm.cohort_key`; clients with
        a ``None`` key stay solo.  ``client_batch=None`` (auto) batches
        each homogeneous group whole; ``client_batch=k`` caps group size
        at ``k``.  Group order follows each group's first member, and
        positions within a group stay sorted, so dispatch order is
        deterministic.
        """
        client_batch = getattr(self.config, "client_batch", None)
        if client_batch == 1 or len(participants) < 2:
            return None
        groups: Dict[object, List[int]] = {}
        for position, client in enumerate(participants):
            key = self.algorithm.cohort_key(client)
            group_key = ("solo", position) if key is None else ("cohort", key)
            groups.setdefault(group_key, []).append(position)
        plan: List[List[int]] = []
        for positions in groups.values():
            cap = len(positions) if client_batch is None else int(client_batch)
            for start in range(0, len(positions), cap):
                plan.append(positions[start:start + cap])
        if all(len(group) == 1 for group in plan):
            return None
        return plan

    def run_until(self, target_round: int) -> Optional[StateDict]:
        """Advance rounds until ``round_index`` reaches ``target_round`` (or
        a callback requests a stop); returns the global state."""
        self.initialize()
        while self._state.round_index < target_round and not self._stop_requested:
            self.step()
        return self._state.global_state

    def run(self, rounds: Optional[int] = None) -> Optional[StateDict]:
        """Run the training stage to ``config.rounds`` (or ``rounds``)."""
        target = self.config.rounds if rounds is None else rounds
        return self.run_until(target)

    def personalize(self) -> RunResult:
        """Run the personalization stage on every client (train + novel)."""
        if self._state.global_state is None:
            raise RuntimeError("train() must run before personalization")
        task = self._instrument(
            functools.partial(
                _personalize_task, self.algorithm, self._state.global_state
            ),
            "client_personalize",
            _personalize_span_attrs,
        )
        accuracies: Dict[int, float] = {}
        novel_accuracies: Dict[int, float] = {}
        everyone = self.clients + self.novel_clients
        with self._span("personalize", clients=len(everyone)):
            outcomes = [self._unbox(boxed)
                        for boxed in self.backend.map_clients(task, everyone)]
            for client, outcome in zip(everyone, outcomes):
                client.store = outcome.store
                target = novel_accuracies if client.is_novel else accuracies
                target[client.client_id] = outcome.result.accuracy
        result = RunResult(
            algorithm=self.algorithm.name,
            accuracies=accuracies,
            novel_accuracies=novel_accuracies,
            rounds=self._state.round_records,
        )
        self._emit(PersonalizeDone(result=result))
        return result

    def execute(self) -> RunResult:
        """Full experiment: (remaining) training rounds, then personalization."""
        try:
            with self._span("session", algorithm=self.algorithm.name):
                self.run()
                return self.personalize()
        finally:
            if self._owns_backend:
                self.close()

    def close(self) -> None:
        """Release execution-backend resources (worker pools)."""
        self.backend.close()

    def __enter__(self) -> "TrainingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owns_backend:
            self.close()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def capture_state(self) -> ServerState:
        """Materialize a full, detached :class:`ServerState` snapshot.

        Everything is deep-copied: later rounds never mutate a captured
        snapshot, and a snapshot restored into a fresh session never
        aliases this one.
        """
        client_stores = {client.client_id: copy.deepcopy(client.store)
                         for client in self.clients if client.store}
        return ServerState(
            algorithm=self.algorithm.name,
            context=self.context,
            round_index=self._state.round_index,
            global_state=(None if self._state.global_state is None
                          else clone_state(self._state.global_state)),
            algorithm_state=self.algorithm.server_state(),
            client_stores=client_stores,
            round_records=copy.deepcopy(self._state.round_records),
            sampler_state=(copy.deepcopy(self.sampler.state_dict())
                           if hasattr(self.sampler, "state_dict") else {}),
            warned_non_finite=self._warned_non_finite,
        )

    def restore_state(self, state: ServerState) -> None:
        """Resume this session from a :class:`ServerState` snapshot.

        The algorithm is re-initialized deterministically
        (:meth:`~repro.fl.algorithm.FederatedAlgorithm.build_global_state`)
        before its server-side state loads, so restoring into a *fresh*
        session — new algorithm instance, freshly built clients — is
        exactly equivalent to never having stopped.
        """
        if state.algorithm != self.algorithm.name:
            raise ValueError(
                f"checkpoint was taken by algorithm '{state.algorithm}' but "
                f"this session runs '{self.algorithm.name}'")
        if state.context and state.context != self.context:
            raise ValueError(
                f"checkpoint context {state.context!r} does not match this "
                f"session's context {self.context!r}: it was taken under a "
                "different configuration/federation (resume only continues "
                "the same run; delete the stale checkpoint to start over)")
        known = {client.client_id for client in self.clients}
        unknown = sorted(set(state.client_stores) - known)
        if unknown:
            raise ValueError(
                f"checkpoint carries stores for unknown client ids {unknown}; "
                "restore into a session built over the same federation")
        # Re-init templates/server slots to their round-0 invariants, then
        # overwrite with the snapshot.
        self.algorithm.build_global_state()
        self.algorithm.load_server_state(copy.deepcopy(state.algorithm_state))
        for client in self.clients:
            client.store = copy.deepcopy(
                state.client_stores.get(client.client_id, {}))
        if state.sampler_state and hasattr(self.sampler, "load_state_dict"):
            self.sampler.load_state_dict(copy.deepcopy(state.sampler_state))
        self._state = ServerState(
            algorithm=state.algorithm,
            context=self.context,
            round_index=state.round_index,
            global_state=(None if state.global_state is None
                          else clone_state(state.global_state)),
            round_records=copy.deepcopy(state.round_records),
        )
        self._warned_non_finite = state.warned_non_finite
        self._initialized = state.global_state is not None

    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Atomically write the current snapshot to ``path`` (JSON)."""
        return write_checkpoint(self.capture_state(), path)

    def load_checkpoint(self, path: Union[str, Path]) -> ServerState:
        """Restore this session from a checkpoint file; returns the state."""
        state = read_checkpoint(path)
        self.restore_state(state)
        return state
